"""Cascade purchase probabilities, exact expected revenue, and the
exhaustive slate optimizer used as the optimality oracle.

A browsing customer inspects slots in order and buys the first satisfactory
product, so slot k converts with probability prod_{i<k}(1 - lambda_i) *
lambda_k.  Expected revenue truncates the walk at the attention span; for a
random span the point-mass evaluations are mixed by the span distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

import numpy as np

from .catalog import BeliefPrior, Catalog
from .demand import CostModel, purchase_chance
# perfbench/tracing.py wraps purchase_prob under this module attribute, so it stays importable.
from .demand import purchase_prob  # noqa: F401

# Hard ceiling on the number of ordered slates the oracle may enumerate.
ENUMERATION_LIMIT = 50_000_000
MAX_UNIVERSE = 12
MAX_SLOTS = 8

# Parent slates one step of the oracle's walk extends together.
_BLOCK = 512
# The walk packs a slate into one int64, this many bits per slot.
_CODE_BITS = 4
_CODE_MASK = (1 << _CODE_BITS) - 1
assert MAX_UNIVERSE <= _CODE_MASK + 1 and MAX_SLOTS * _CODE_BITS < 63

_PMF_TOL = 1e-12
_FORM_AGREEMENT_TOL = 1e-10


class EnumerationGuardError(RuntimeError):
    """The brute-force oracle would exceed its enumeration budget."""

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


@dataclass(frozen=True)
class AttentionSpanDist:
    """Distribution of the number of slots a customer is willing to view.

    Either a point mass (kind "deterministic") or a finite pmf over spans
    >= 1.  ``tail(y)`` gives Pr(span >= y).
    """

    kind: str
    pmf: tuple[tuple[int, float], ...]

    @classmethod
    def deterministic(cls, span: int) -> "AttentionSpanDist":
        if not isinstance(span, int) or span < 1:
            raise ValueError(f"span must be an integer >= 1, got {span!r}")
        return cls(kind="deterministic", pmf=((span, 1.0),))

    @classmethod
    def from_pmf(
        cls, entries: Mapping[int, float] | Iterable[tuple[int, float]]
    ) -> "AttentionSpanDist":
        items = sorted(dict(entries).items())
        if not items:
            raise ValueError("span pmf is empty")
        total = 0.0
        for span, prob in items:
            if not isinstance(span, int) or span < 1:
                raise ValueError(f"span values must be integers >= 1, got {span!r}")
            if not 0 <= prob < math.inf:
                raise ValueError(f"span probability must be nonnegative and finite, got {prob}")
            total += prob
        if abs(total - 1.0) > _PMF_TOL:
            raise ValueError(f"span probabilities must sum to 1, got {total!r}")
        return cls(kind="pmf", pmf=tuple(items))

    def tail(self, span: int) -> float:
        """Pr(attention span >= span)."""
        return math.fsum(h for y, h in self.pmf if y >= span)

    @property
    def max_span(self) -> int:
        return self.pmf[-1][0]


@dataclass(frozen=True)
class SlateInputs:
    """Per-slot evaluation inputs for an ordered slate."""

    ids: tuple[str, ...]
    lambdas: tuple[float, ...]
    prices: tuple[float, ...]
    omegas: tuple[float, ...]


@dataclass(frozen=True)
class CascadeProbs:
    """Unconditional slot purchase probabilities and the no-purchase mass."""

    per_slot: tuple[float, ...]
    no_purchase: float


@dataclass(frozen=True)
class SlateEvaluation:
    per_slot_purchase_prob: tuple[float, ...]
    no_purchase_prob: float
    expected_revenue: float


def resolve_inputs(
    catalog: Catalog,
    slate: Sequence[str],
    prior: BeliefPrior | None = None,
    cost: CostModel | None = None,
    omega: float | None = None,
) -> SlateInputs:
    """Resolve per-slot demand, price, and share for an ordered slate.

    Demand precedence: a product's pinned demand wins; otherwise the logit
    path computes a slot-dependent probability from the prior and cost
    model.  ``omega`` overrides every revenue share uniformly.  The catalog
    is read as columns, by row.
    """
    if len(set(slate)) != len(slate):
        raise ValueError(f"slate contains duplicate ids: {list(slate)}")
    cost = cost if cost is not None else CostModel()
    c = catalog.columns
    lambdas, prices, omegas = [], [], []
    for slot, pid in enumerate(slate, start=1):
        row = catalog.row(pid)
        values = (c.demand.item(row), c.reviews.item(row), c.rating.item(row), c.price.item(row))
        lambdas.append(purchase_chance(pid, *values, slot, prior, cost, warn_stacklevel=2))
        prices.append(values[3])
        omegas.append(omega if omega is not None else c.share.item(row))
    return SlateInputs(tuple(slate), tuple(lambdas), tuple(prices), tuple(omegas))


def _cascade_prefix(lambdas: Sequence[float]) -> list[float]:
    """No-purchase mass before each slot and after the last: the one scalar cascade walk.

    Slot k converts with ``prefix[k] * lam_k`` and earns ``prefix[k] * lam_k
    * price_k * share_k``, in the operation order the oracle walk
    (`_best_slate`) and the simulator's frozen walk repeat on arrays.
    """
    prefix = [1.0]
    for lam in lambdas:
        prefix.append(prefix[-1] * (1.0 - lam))
    return prefix


def _slot_revenues(
    lambdas: Sequence[float], prices: Sequence[float], omegas: Sequence[float]
) -> list[float]:
    """Each slot's expected revenue term under the cascade."""
    prefix = _cascade_prefix(lambdas)
    return [pre * lam * price * w for pre, lam, price, w in zip(prefix, lambdas, prices, omegas)]


def cascade_probs(lambdas: Sequence[float]) -> CascadeProbs:
    """Slot-level purchase split under sequential browsing.

    Slot k receives prefix * lambda_k where prefix is the probability that
    every earlier slot was rejected; the leftover prefix is the no-purchase
    mass.  Together they always sum to 1.
    """
    for lam in lambdas:
        if not 0 < lam < 1:
            raise ValueError(f"purchase probability must lie in (0, 1), got {lam}")
    prefix = _cascade_prefix(lambdas)
    return CascadeProbs(tuple([pre * lam for pre, lam in zip(prefix, lambdas)]), prefix[-1])


def expected_revenue_fixed(inputs: SlateInputs, span: int) -> float:
    """Expected platform revenue from a customer who views up to ``span`` slots."""
    if span < 1:
        raise ValueError(f"span must be >= 1, got {span}")
    return math.fsum(
        _slot_revenues(inputs.lambdas[:span], inputs.prices[:span], inputs.omegas[:span])
    )


def _mixture_value(terms: Sequence[float], dist: AttentionSpanDist) -> float:
    """Span-pmf mixture of fixed-span revenues, via the cumulative ``_slot_revenues``.

    The exact scorer: expected_revenue reports it, and brute_force_optimize
    re-scores every candidate of its approximate walk with it, so optimizer
    comparisons and reported slate values ride the identical arithmetic
    path.  The running sum starts at 0.0, so a -0.0 term adds to +0.0.
    """
    cumulative = list(accumulate(terms, initial=0.0))
    return math.fsum(h * cumulative[min(y, len(terms))] for y, h in dist.pmf)


def _tail_value(terms: Sequence[float], dist: AttentionSpanDist) -> float:
    """The tail-weighted form: slot k's revenue term times Pr(span >= k)."""
    return math.fsum(term * dist.tail(k) for k, term in enumerate(terms, start=1))


def expected_revenue(inputs: SlateInputs, dist: AttentionSpanDist) -> float:
    """Expected revenue under a random attention span.

    Computed as the pmf-weighted mixture of fixed-span evaluations; spans
    beyond the slate length contribute the full-slate value.  The
    equivalent tail-weighted form is evaluated alongside and must agree to
    1e-10, relative or absolute, failing loudly otherwise: the two forms
    round differently by a few ulps of the value.
    """
    terms = _slot_revenues(inputs.lambdas, inputs.prices, inputs.omegas)
    direct, tail_form = _mixture_value(terms, dist), _tail_value(terms, dist)
    # A NaN difference passes: an infinite price beyond the longest span
    # makes the tail form inf * 0.0 while the mixture never reads it.
    tol = _FORM_AGREEMENT_TOL
    if abs(direct - tail_form) > tol and not math.isclose(direct, tail_form, rel_tol=tol):
        raise ArithmeticError(f"span-expectation forms disagree: {direct!r} vs {tail_form!r}")
    return direct


def evaluate_slate(inputs: SlateInputs, dist: AttentionSpanDist) -> SlateEvaluation:
    """Bundle the cascade split with the span-weighted expected revenue."""
    probs = cascade_probs(inputs.lambdas)
    return SlateEvaluation(
        per_slot_purchase_prob=probs.per_slot,
        no_purchase_prob=probs.no_purchase,
        expected_revenue=expected_revenue(inputs, dist),
    )


@dataclass(frozen=True)
class OptimizeResult:
    slate: tuple[str, ...]
    value: float
    enumerated: int
    compare_value: float | None = None
    gap: float | None = None
    # Slates the walk approximated; the rest of `enumerated` were bounded out.
    scored: int | None = None


def _lambda_table(
    catalog: Catalog, depth: int, prior: BeliefPrior | None, cost: CostModel
) -> list[list[float]]:
    """Demand of every catalog row at slots 1..depth, as ``table[slot - 1][row]``.

    Demand depends only on (product, slot).  The table is filled in the
    order a lexicographic walk over the slates first reaches each pair, so
    utility-scale warnings come out in that order: for slot s, the rows
    s-1..n-1 ascending, then s-2..0 descending.
    """
    c = catalog.columns
    rows = list(zip(c.ids, *(col.tolist() for col in (c.demand, c.reviews, c.rating, c.price))))
    table = [[0.0] * len(rows) for _ in range(depth)]
    for slot in range(1, depth + 1):
        for i in [*range(slot - 1, len(rows)), *range(slot - 2, -1, -1)]:
            table[slot - 1][i] = purchase_chance(*rows[i], slot, prior, cost, warn_stacklevel=2)
    return table


# Infinite prices (Product accepts them) give inf and NaN approximations.
@np.errstate(invalid="ignore", over="ignore")
def _best_slate(
    ids: Sequence[str],
    lam: list[list[float]],
    prices: Sequence[float],
    shares: Sequence[float],
    dist: AttentionSpanDist,
    depth: int,
) -> tuple[float, tuple[str, ...], int, int]:
    """The best (value, slate) by the exact score, and the slates scored and bounded.

    Walks the ordered-slate tree depth first, extending up to _BLOCK parents
    at a time, with codes packed _CODE_BITS bits per slot (first slot
    highest).  Each node carries its used-product bitmask, the no-purchase
    mass ``pre`` and the cumulative revenue ``run``, updated in the scalar
    code's operation order, so ``run`` equals `_mixture_value`'s cumulative
    value bit for bit.  ``fixed`` holds the pmf mass times the cumulative
    value at every span the slate has passed; adding the remaining tail
    mass times ``run`` gives the approximation.  Memory stays bounded by
    _BLOCK times depth.

    Scoring.  Each approximation lies within (len(pmf) + 4) ulps, relative,
    of the exact fsum value (every term is >= 0), so the slate with the
    largest exact value never falls below the running maximum of
    approximations times 1 - (2 * len(pmf) + 10) * 2**-53.  The margin
    doubles that, and only the slates above it are re-scored.

    Bounding.  A slate longer than the longest span is worth exactly its
    prefix of that length, which sorts first, so the walk stops at that
    length.  Before recursing, every child of length m gets the bound
    ``fixed + tail(m) * (run + pre * unit[m])``.  Here ``unit[t] = max(0,
    max_i lam[t][i] * r_i + (1 - lam[t][i]) * unit[t + 1])``, with ``r_i =
    price_i * share_i``, is the most revenue one unit of no-purchase mass
    can still earn in slots t.. if products may repeat.  A child with
    ``bound * rise + tiny < running_max * (1 - margin)`` is dropped, and
    its extensions are counted, not walked.

    Proof that every extension e of a dropped child c scores strictly
    below the reported best.  Every price, share and lambda is >= 0 and
    every lambda <= 1 (brute_force_optimize checks this), so every term is
    >= 0.  Write u = 2**-53, N for the depth the walk reaches, L =
    len(pmf), scale = max(1, max price) * max(1, max share), and ``c_j =
    1 - lam`` for the float both codes compute.  A float operation on such
    operands is exact up to a factor in [1 - u, 1 + u] plus, for a product
    below the normal range, at most 2**-1075; fsum and ``dist.tail`` round
    once.  Leaving out the underflow terms:
    (1) e's cumulative values never decrease, and up to length m they are
        c's, so with T the real tail mass at m, score(e) <= (1 + u)**2 *
        (sum_{y<m} h_y cum_y + T cum_e), where sum_{y<m} h_y cum_y <=
        fixed / (1 - u)**(m + 1) and T <= tail(m) / (1 - u).
    (2) Unrolling e's k = len(e) - m <= N - m further slots, cum_e <= (1 +
        u)**(k + 3) / (1 - u) * (run + pre * W), where W = sum_j lam_j
        r_j prod_{i<j} c_i is one path of the ``unit`` recurrence taken in
        real arithmetic, so W is at most that recurrence's value, which is
        at most ``unit[m]`` / (1 - u)**(2 (N - m)).
    (3) The bound's four operations lose at most a factor (1 - u)**4.
    So score(e) <= bound * (1 + u)**(N + 4) / (1 - u)**(2N + 4) <= bound
    * (1 + (6N + 16) u), which is below ``bound * rise`` rounded, with
    rise = 1 + (8N + 40) u.  Underflow adds at most (2L + 200) * scale *
    2**-1075 over e's score, the bound and the running maximum; tiny =
    (L + 128) * scale * 2**-1066 covers it.
    (4) The running maximum is the approximation of a slate s that was
        re-scored, so it is at most score(s) * (1 + (2L + 10) u), and the
        rounded ``running_max * (1 - margin)`` is below score(s) <= the
        reported best.
    Hence score(e) < best: e can neither win nor tie, and the result is
    that of the full walk.  A NaN or infinite bound, or a non-finite input
    (tiny is then inf or NaN), compares false and drops nothing.
    """
    count = len(prices)
    lam_table = np.array(lam, dtype=float)
    price = np.array(prices, dtype=float)
    share = np.array(shares, dtype=float)
    onehot = np.left_shift(1, np.arange(count, dtype=np.int64))
    mass = dict(dist.pmf)
    head = [mass.get(d, 0.0) for d in range(depth)]
    tail = [dist.tail(m) for m in range(depth + 1)]
    reach = min(depth, dist.max_span)
    # below[m]: the extensions of one slate of length m, up to length depth.
    below = [
        sum(math.perm(count - m, j) for j in range(1, depth - m + 1)) for m in range(depth + 1)
    ]
    per_sale = price * share
    unit = np.zeros(reach + 1)
    for t in range(reach - 1, -1, -1):
        step = lam_table[t] * per_sale + (1.0 - lam_table[t]) * unit[t + 1]
        unit[t] = np.maximum(0.0, step.max())
    margin = (4 * len(dist.pmf) + 16) * 2.0**-53
    rise = 1.0 + (8 * reach + 40) * 2.0**-53
    scale = np.maximum(1.0, price.max()) * np.maximum(1.0, share.max())
    tiny = (len(dist.pmf) + 128) * scale * 2.0**-1066

    running_max = -math.inf
    best_value = -math.inf
    best_slate: tuple[str, ...] = ()
    scored = bounded = 0

    def score(length, codes, approx):
        nonlocal running_max, best_value, best_slate
        top = float(approx.max(where=np.isfinite(approx), initial=-math.inf))
        running_max = max(running_max, top)
        # NaN compares false, so a non-finite approximation is always re-scored.
        candidates = ~(approx < running_max * (1.0 - margin))
        shifts = range(_CODE_BITS * (length - 1), -1, -_CODE_BITS)
        for code in codes[candidates].tolist():
            row = [code >> shift & _CODE_MASK for shift in shifts]
            slate = tuple(ids[i] for i in row)
            value = _mixture_value(
                _slot_revenues(
                    [lam[slot][i] for slot, i in enumerate(row)],
                    [prices[i] for i in row],
                    [shares[i] for i in row],
                ),
                dist,
            )
            if value > best_value or (value == best_value and slate < best_slate):
                best_value = value
                best_slate = slate

    def walk(d, used, pre, run, fixed, codes):
        nonlocal scored, bounded
        for lo in range(0, len(used), _BLOCK):
            parent, item = np.nonzero((used[lo : lo + _BLOCK, None] & onehot) == 0)
            parent += lo
            lam_c = lam_table[d, item]
            pre_p = pre[parent]
            run_c = run[parent] + pre_p * lam_c * price[item] * share[item]
            fixed_c = fixed[parent] + head[d] * run[parent]
            codes_c = (codes[parent] << _CODE_BITS) | item
            score(d + 1, codes_c, fixed_c + tail[d + 1] * run_c)
            scored += len(codes_c)
            if d + 1 == reach:
                bounded += len(codes_c) * below[d + 1]
                continue
            pre_c = pre_p * (1.0 - lam_c)
            bound = fixed_c + tail[d + 1] * (run_c + pre_c * unit[d + 1])
            keep = ~(bound * rise + tiny < running_max * (1.0 - margin))
            bounded += (len(keep) - int(np.count_nonzero(keep))) * below[d + 1]
            walk(
                d + 1, (used[parent] | onehot[item])[keep], pre_c[keep],
                run_c[keep], fixed_c[keep], codes_c[keep],
            )

    root = np.zeros(1, dtype=np.int64)
    walk(0, root, np.ones(1), np.zeros(1), np.zeros(1), root)
    return best_value, best_slate, scored, bounded


def enumeration_count(universe: int, slot_count: int) -> int:
    """Number of nonempty ordered slates of at most slot_count products."""
    return sum(math.perm(universe, m) for m in range(1, min(slot_count, universe) + 1))


def brute_force_optimize(
    catalog: Catalog,
    slot_count: int,
    dist: AttentionSpanDist,
    prior: BeliefPrior | None = None,
    cost: CostModel | None = None,
    omega: float | None = None,
    compare: Sequence[str] | None = None,
) -> OptimizeResult:
    """Exhaustively maximize expected revenue over every ordered slate.

    Enumerates all nonempty ordered selections of at most slot_count
    products; ties break toward the lexicographically smallest id sequence,
    so the result is independent of evaluation order.  A blocked numpy walk
    approximates each slate's value; the slates within a proven margin of
    the best approximation are re-scored by the exact `_mixture_value`, which
    alone decides.  The walk skips every subtree whose proven upper bound
    lies below the best found so far, and counts its slates instead, so
    ``enumerated`` is still every slate and ``scored`` those it walked.
    Negative prices or shares, and purchase probabilities outside [0, 1],
    are refused: the bounds hold for nonnegative cascade terms only.  So
    are catalogs that list an id twice.  Refuses universes beyond the guard
    limits rather than truncating silently.
    """
    if slot_count < 1:
        raise ValueError(f"slot_count must be >= 1, got {slot_count}")
    if not catalog.universe_size:
        raise ValueError("catalog is empty")
    catalog.require_unique_ids()
    size = catalog.universe_size
    count = enumeration_count(size, slot_count)
    if size > MAX_UNIVERSE or slot_count > MAX_SLOTS or count > ENUMERATION_LIMIT:
        raise EnumerationGuardError(
            f"enumeration guard exceeded: {count} ordered slates "
            f"(universe {size}, slots {slot_count}); "
            f"limits are universe <= {MAX_UNIVERSE}, slots <= {MAX_SLOTS}, "
            f"slates <= {ENUMERATION_LIMIT}",
            count,
        )

    cost = cost if cost is not None else CostModel()
    columns = catalog.columns
    ids = columns.ids
    depth = min(slot_count, size)
    lam = _lambda_table(catalog, depth, prior, cost)
    prices = columns.price.tolist()
    shares = [omega] * size if omega is not None else columns.share.tolist()

    for i, pid in enumerate(ids):
        if prices[i] < 0:
            raise ValueError(f"product {pid!r}: price {prices[i]} is negative")
        if shares[i] < 0:
            raise ValueError(f"product {pid!r}: revenue share {shares[i]} is negative")
        for slot, row in enumerate(lam, start=1):
            if row[i] < 0 or row[i] > 1:
                raise ValueError(
                    f"product {pid!r}: purchase probability {row[i]} at slot {slot} outside [0, 1]"
                )

    best_value, best_slate, scored, bounded = _best_slate(ids, lam, prices, shares, dist, depth)
    assert scored + bounded == count, (scored, bounded, count)

    compare_value = None
    gap = None
    if compare is not None:
        compare_inputs = resolve_inputs(catalog, compare, prior=prior, cost=cost, omega=omega)
        compare_value = expected_revenue(compare_inputs, dist)
        gap = best_value - compare_value
    return OptimizeResult(
        slate=best_slate,
        value=best_value,
        enumerated=scored + bounded,
        compare_value=compare_value,
        gap=gap,
        scored=scored,
    )
