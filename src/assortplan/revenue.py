"""Cascade purchase probabilities, exact expected revenue, and the
exhaustive slate optimizer used as the optimality oracle.

A browsing customer inspects slots in order and buys the first satisfactory
product, so slot k converts with probability prod_{i<k}(1 - lambda_i) *
lambda_k.  Expected revenue truncates the walk at the attention span; for a
random span the point-mass evaluations are mixed by the span distribution.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from numbers import Real
from operator import mul
from typing import Iterable, Mapping, Sequence

import numpy as np

from .catalog import BeliefPrior, Catalog, require_int
from .demand import UTILITY_SCALE_WARN, CostModel, logistic, posterior, purchase_chance
# perfbench/tracing.py wraps purchase_prob under this module attribute, so it stays importable.
from .demand import purchase_prob  # noqa: F401

# Hard ceiling on the number of ordered slates the oracle may enumerate.
ENUMERATION_LIMIT = 50_000_000
MAX_UNIVERSE = 12
MAX_SLOTS = 8

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
        if isinstance(span, bool) or not isinstance(span, int) or span < 1:
            raise ValueError(f"span must be an integer >= 1, got {span!r}")
        return cls(kind="deterministic", pmf=((span, 1.0),))

    @classmethod
    def from_pmf(
        cls, entries: Mapping[int, float] | Iterable[tuple[int, float]]
    ) -> "AttentionSpanDist":
        pairs = list(entries.items() if isinstance(entries, Mapping) else entries)
        for span, _ in pairs:  # before sorting, which compares the spans
            if isinstance(span, bool) or not isinstance(span, int) or span < 1:
                raise ValueError(f"span values must be integers >= 1, got {span!r}")
        items = sorted(dict(pairs).items())
        if len(items) < len(pairs):  # pairs, unlike a mapping, can repeat a span
            spans = [span for span, _ in pairs]
            repeated = next(span for i, span in enumerate(spans) if span in spans[:i])
            raise ValueError(f"repeated span {repeated!r} in span pmf")
        if not items:
            raise ValueError("span pmf is empty")
        total = 0.0
        for span, prob in items:
            if isinstance(prob, bool) or not isinstance(prob, Real) or not 0 <= prob <= sys.float_info.max:
                raise ValueError(f"span probability must be nonnegative and finite, got {prob!r}")
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
    * price_k * share_k``, in the operation order the oracle's search
    (`_best_slate`) repeats and the simulator's frozen walk repeats on arrays.
    """
    return list(accumulate((1.0 - lam for lam in lambdas), mul, initial=1.0))


def _slot_revenues(
    lambdas: Sequence[float], prices: Sequence[float], omegas: Sequence[float]
) -> list[float]:
    """Each slot's expected revenue term under the cascade."""
    prefix = _cascade_prefix(lambdas)
    return [pre * lam * price * w for pre, lam, price, w in zip(prefix, lambdas, prices, omegas)]


def cascade_probs(lambdas: Sequence[float]) -> tuple[tuple[float, ...], float]:
    """Slot-level purchase split under sequential browsing: (per slot, no purchase).

    Slot k receives prefix * lambda_k where prefix is the probability that
    every earlier slot was rejected; the leftover prefix is the no-purchase
    mass.  Together they always sum to 1.
    """
    for lam in lambdas:
        if not 0 < lam < 1:
            raise ValueError(f"purchase probability must lie in (0, 1), got {lam}")
    prefix = _cascade_prefix(lambdas)
    return tuple([pre * lam for pre, lam in zip(prefix, lambdas)]), prefix[-1]


def _mixture_value(terms: Sequence[float], dist: AttentionSpanDist) -> float:
    """Span-pmf mixture of fixed-span revenues, via the cumulative ``_slot_revenues``.

    The exact scorer: expected_revenue reports it, and brute_force_optimize
    re-scores every candidate of its approximate search with it, so optimizer
    comparisons and reported slate values ride the identical arithmetic
    path.  The running sum starts at 0.0, so a -0.0 term adds to +0.0.
    """
    cumulative = list(accumulate(terms, initial=0.0))
    return math.fsum(h * cumulative[min(y, len(terms))] for y, h in dist.pmf)


def _exact_score(
    rows: Sequence[int], lam: list[list[float]], prices: Sequence[float], shares: Sequence[float],
    dist: AttentionSpanDist,
) -> float:
    """The exact score of the slate of catalog ``rows``, ``lam[slot][row]`` being its demand."""
    lambdas = [lam[slot][i] for slot, i in enumerate(rows)]
    terms = _slot_revenues(lambdas, [prices[i] for i in rows], [shares[i] for i in rows])
    return _mixture_value(terms, dist)


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


def evaluate_slate(
    inputs: SlateInputs, dist: AttentionSpanDist
) -> tuple[tuple[float, ...], float, float]:
    """The cascade split and the span-weighted expected revenue: (per slot, no purchase, value)."""
    return *cascade_probs(inputs.lambdas), expected_revenue(inputs, dist)


@dataclass(frozen=True)
class OptimizeResult:
    slate: tuple[str, ...]
    value: float
    enumerated: int
    compare_value: float | None = None
    gap: float | None = None
    # Slates the search approximated, the rest being bounded out; 0 if `_sorted_slate` certified.
    scored: int | None = None


def _lambda_table(catalog: Catalog, depth: int, prior: BeliefPrior | None, cost: CostModel) -> list:
    """Demand of every catalog row at slots 1..depth, as ``table[slot - 1][row]``.

    A pinned demand is the same at every slot.  A logit row's ``posterior -
    price`` is taken once and each slot subtracts its position cost, in
    `demand.utility`'s order, so each entry has ``purchase_chance``'s bits.
    Utility-scale warnings come in the order a walk over the slates first
    reaches each pair: for slot s, rows s-1..n-1 ascending, then s-2..0 descending.
    """
    c = catalog.columns
    rows = list(zip(c.ids, *(col.tolist() for col in (c.demand, c.reviews, c.rating, c.price))))
    table = [[row[1] for row in rows] for _ in range(depth)]
    # purchase_chance returns a truthy pin itself, and refuses a logit row without a prior.
    quality = {
        i: posterior(prior, count, mean) - price if prior else purchase_chance(*rows[i], 1, prior, cost)
        for i, (_, pin, count, mean, price) in enumerate(rows) if not pin
    }
    for slot in range(depth if quality else 0):
        step, row = cost.slope * slot, table[slot]
        for i in [*range(slot, len(rows)), *range(slot - 1, -1, -1)]:
            if i in quality:
                row[i] = logistic(chi := quality[i] - step)
                if abs(chi) > UTILITY_SCALE_WARN:
                    purchase_chance(*rows[i], slot + 1, prior, cost, warn_stacklevel=2)
    return table


@lru_cache(maxsize=MAX_UNIVERSE)
def _subset_levels(count: int) -> list:
    """For each t < count: the bitmasks of t rows, the rows each leaves free, and each grown by each."""
    masks = np.arange(1 << count)
    levels = [masks[np.bitwise_count(masks) == t] for t in range(count)]
    free = [np.nonzero((m[:, None] >> np.arange(count) & 1) == 0)[1].reshape(len(m), -1) for m in levels]
    return [(m, f, m[:, None] | 1 << f) for m, f in zip(levels, free)]


# Infinite prices (Product accepts them) give inf and NaN approximations and bounds.
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

    Bound.  With r_i = price_i * share_i, ``value[S]`` is the most a unit of
    no-purchase mass earns from slot |S| + 1 on, rows S used: 0 at |S| =
    reach = min(depth, max span), else the max over i not in S of ``tail(|S|
    + 1) * lam[|S|][i] * r_i + (1 - lam[|S|][i]) * value[S | i]`` (Held and
    Karp's subset recurrence, 1962, on Kempe and Mahdian's cascade, 2008).

    Search.  Depth first in plain Python; each node carries its used rows,
    the no-purchase mass ``pre``, the cumulative revenue ``run`` (in the
    scalar code's operation order, so bit-equal to `_mixture_value`'s) and
    ``fixed``, the pmf mass times the cumulative value at each span passed.
    At length m, ``approx = fixed + tail(m) * run``, and a child c with
    ``bound * rise + tiny < floor`` is dropped, its extensions counted:
    ``bound = approx + pre * value[used(c)]`` is exact in real arithmetic
    and ``floor = running_max * (1 - margin)``.  A slate longer than reach
    scores exactly its prefix of that length, which sorts first, so the
    search stops there.  ``running_max`` starts at the exact score of the
    path along the argmax of ``value``, which seeds the best slate too if
    finite, and rises with every finite approximation.  An approximation
    lies within (L + 4) ulps, relative, of the exact fsum value (every term
    is >= 0), so the best slate never falls below running_max * (1 - (2L +
    10) u); the margin doubles that, and a slate is re-scored exactly
    unless ``approx + tiny < floor``, which a NaN never is.

    Proof that every extension e of a dropped child c scores below the
    reported best.  Every price, share and lambda is >= 0 and every lambda
    <= 1 (brute_force_optimize checks this).  Write u = 2**-53, N = reach,
    k = len(e) - m <= N - m, L = len(pmf), T_y for the real tail mass at y,
    scale = max(1, max finite price) * max(1, max finite share), and c_j =
    1 - lam_j as computed.  A float operation is exact up to a factor in [1
    - u, 1 + u] plus, for a product below the normal range, 2**-1075; fsum
    and ``dist.tail`` round once.  Leaving out underflow:
    (1) e's cumulative values never decrease and up to m are c's, so
        score(e) <= (1 + u)**2 (sum_{y<m} h_y cum_y + sum_{y>=m} h_y
        cum_min(y,m+k)), and the first sum is <= fixed / (1 - u)**(m + 1).
    (2) Each of e's k additions rounds up by at most 1 + u, and its term at
        slot j by (1 + u)**(j - m + 2) over pre lam_j r_j prod_{m<i<j} c_i,
        so the second sum is <= (1 + u)**(2k + 2) (T_m run + pre W), where
        W = sum_j T_j lam_j r_j prod_{m<i<j} c_i is one path of the real
        subset recurrence from used(c), so at most its value.
    (3) Each level rounds the gain four times and the rest twice, so
        ``value[S]`` >= (1 - u)**(2 (N - |S|) + 2) times that real value.
    (4) The bound loses at most (1 - u)**4, tail(m) >= (1 - u) T_m included.
    So score(e) <= bound * (1 + u)**(2N + 2) / (1 - u)**(2N + 4) <= bound *
    (1 + (4N + 7) u), below ``bound * rise`` rounded, rise = 1 + (8N + 40)
    u.  Underflow adds at most (2L + 4N + 200) * scale * 2**-1075 over e's
    score, the bound and the running maximum, less to an approximation, and
    tiny = (L + 128) * scale * 2**-1066 covers either.
    (5) running_max is the seed's exact score or the approximation of a
        re-scored slate s, at most score(s) * (1 + (2L + 10) u), so the
        rounded floor is below score(s) <= the reported best.
    So e can neither win nor tie.  A NaN or infinite bound drops nothing.
    """
    count = len(prices)
    head = [dict(dist.pmf).get(d, 0.0) for d in range(depth)]
    tail = [dist.tail(m) for m in range(depth + 1)]
    reach = min(depth, dist.max_span)
    # below[m]: the extensions of one slate of length m, up to length depth.
    below = [enumeration_count(count - m, depth - m) for m in range(depth + 1)]
    lam_table, per_sale = np.array(lam), np.array(prices) * np.array(shares)
    gains = [tail[t + 1] * lam_table[t] * per_sale for t in range(reach)]
    table = np.zeros(1 << count)
    for t in range(reach - 1, -1, -1):
        level, free, grown = _subset_levels(count)[t]
        table[level] = (gains[t][free] + (1.0 - lam_table[t])[free] * table[grown]).max(axis=1)
    value = table.tolist()
    margin, rise = (4 * len(dist.pmf) + 16) * 2.0**-53, 1.0 + (8 * reach + 40) * 2.0**-53
    scale = math.prod(max([1.0, *(x for x in column if x < math.inf)]) for column in (prices, shares))
    tiny = (len(dist.pmf) + 128) * scale * 2.0**-1066
    path, used = [], 0
    for t, gain in enumerate(gains):
        free = [i for i in range(count) if not used >> i & 1]
        path.append(max(free, key=lambda i: gain.item(i) + (1.0 - lam[t][i]) * value[used | 1 << i]))
        used |= 1 << path[-1]
    seed = _exact_score(path, lam, prices, shares, dist)
    best_value, best_slate = (seed, tuple(ids[i] for i in path)) if math.isfinite(seed) else (-math.inf, ())
    running_max, floor, scored, bounded = best_value, best_value * (1.0 - margin), 0, 0

    def search(d, used, pre, run, fixed, rows):
        nonlocal running_max, floor, best_value, best_slate, scored, bounded
        row, step, fixed = lam[d], tail[d + 1], fixed + head[d] * run
        for i in [j for j in range(count) if not used >> j & 1]:
            run_c = run + pre * row[i] * prices[i] * shares[i]
            approx = fixed + step * run_c
            scored += 1
            if running_max < approx < math.inf:
                running_max, floor = approx, approx * (1.0 - margin)
            if not approx + tiny < floor:
                score = _exact_score([*rows, i], lam, prices, shares, dist)
                slate = tuple(ids[j] for j in [*rows, i])
                if score > best_value or (score == best_value and slate < best_slate):
                    best_value, best_slate = score, slate
            pre_c = pre * (1.0 - row[i])
            if d + 1 < reach and not (approx + pre_c * value[used | 1 << i]) * rise + tiny < floor:
                search(d + 1, used | 1 << i, pre_c, run_c, fixed, [*rows, i])
            else:
                bounded += below[d + 1]

    search(0, 0, 1.0, 0.0, 0.0, [])
    del search  # its closure holds it: free the cycle now, not at a later collection
    return best_value, best_slate, scored, bounded


def _sorted_slate(
    ids: Sequence[str],
    lam: list[list[float]],
    prices: Sequence[float],
    shares: Sequence[float],
    dist: AttentionSpanDist,
    depth: int,
) -> tuple[float, tuple[str, ...]] | None:
    """`_best_slate`'s (value, slate) without the search, when it can be proven; else None.

    Applies when demand is slot-independent (every row of ``lam`` equals
    slot 1's), the span is one point y of mass 1.0, every lambda_i and
    ``r_i = price_i * share_i`` is > 0 and finite, no two r are equal, and
    ``4 * N * max r`` is finite, where N = min(depth, y).

    Programme.  With the rows sorted by r descending, ``V[p][j] =
    max(V[p+1][j], lam_p r_p + (1 - lam_p) V[p+1][j-1])`` is the most one
    unit of no-purchase mass earns from at most j of rows p.. in that
    order.  The path from (0, N) takes row p iff V[p][j] > V[p+1][j]; at
    each of its cells, ``take`` and ``skip`` are the two branches.

    Certificate.  ``gap`` is the least of ``mass * |take - skip|`` over the
    path's cells, mass being the no-purchase mass before the cell, and of
    ``before * lam_a * lam_b * (r_a - r_b)`` over adjacent rows (a, b) of
    the slate S, before being the mass before a.  S is accepted iff ``gap >
    (16N + 16) u V[0][N] + (N + 10)**2 * scale * 2**-1073``, with u =
    2**-53 and scale as in `_best_slate`.

    Proof that S is then the search's answer.  In real arithmetic let W be
    the optimum V[0][N] and G the gap of the real programme's path.
    (1) Exchanging an adjacent pair (a, b) with r_a > r_b into r order
        raises a slate's value by P lam_a lam_b (r_a - r_b) >= 0, P the
        mass before the pair, and leaves every other term alone (criterion
        06).  Bubble-sorting a slate T by r therefore never lowers its
        value, and if sorted T is S != T, the last exchange turns S with
        one adjacent pair reversed into S, so value(T) <= W - that pair's
        swap term.
    (2) A sorted T != S leaves S's path at a first cell with mass M, where
        it takes what S skips or the reverse; the common rows earn the
        same, so value(T) <= W - M |take - skip|.
    So every slate T != S of at most N slots is worth at most W - G.  A
    longer slate is longer than y (then N = y), scores exactly its
    length-y prefix, and so either loses to S or ties S as S's extension
    and loses on ids.
    (3) Rounding, with the conventions of `_best_slate`'s proof: a slate's
        exact score takes at most 3N + 1 roundings of nonnegative terms, so
        |score - value| <= a value + theta, with a = (3N + 2) u and theta
        = N (N + 5) / 2 * scale * 2**-1075, every underflowing product
        being multiplied at most by a price and a share later.  A cell
        V[p][j] <= W takes at most 3j roundings and its underflow meets no
        price, so it lies within (3N + 1) u W + 4N 2**-1075 of its real
        value; a computed mass lies within 2N roundings of its own.  As M
        (take + skip) <= 2 W and before lam_a lam_b (r_a + r_b) <= 2
        before lam_a r_a <= 2 W, each computed gap term lies within (8N +
        5) u W + (10N + 1) scale 2**-1075 of its real value.  The
        accepting comparison exceeds that error at every path cell, so
        each computed take/skip decision has the real sign and the path is
        the real programme's, and G > 2 a W + 2 theta: the tolerance's
        constants cover this with V[0][N] >= (1 - (3N + 2) u) W - 4N
        2**-1075, the two roundings of the bound, and its own underflow.
        Then score(S) >= (1 - a) W - theta > (1 + a)(W - G) + theta >=
        score(T) for every T != S: S alone scores highest.
    (4) Nothing overflows: every term and cell is at most max r (1 +
        u)**(4N), and every running sum at most 2N max r.
    So S and its exact score are the search's result.
    """
    chance = lam[0]
    if len(dist.pmf) != 1 or dist.pmf[0][1] != 1.0:
        return None
    if any(row != chance for row in lam[1:]) or not all(x > 0 for x in chance):
        return None
    per_sale = [p * w for p, w in zip(prices, shares)]
    cap = min(depth, dist.max_span)
    if not all(0 < r < math.inf for r in per_sale) or not max(per_sale) * (4 * cap) < math.inf:
        return None
    order = sorted(range(len(ids)), key=per_sale.__getitem__, reverse=True)
    r = [per_sale[i] for i in order]
    if any(a == b for a, b in zip(r, r[1:])):
        return None
    c = [chance[i] for i in order]
    gain = [ci * ri for ci, ri in zip(c, r)]
    keep = [1.0 - ci for ci in c]
    value = [[0.0] * (cap + 1)]
    for p in range(len(order) - 1, -1, -1):
        below = value[-1]
        value.append([0.0] + [max(below[j], gain[p] + keep[p] * below[j - 1]) for j in range(1, cap + 1)])
    value.reverse()

    slate: list[int] = []
    mass = before = 1.0
    gap = math.inf
    j = cap
    for p in range(len(order)):
        if j == 0:
            break
        skip = value[p + 1][j]
        take = gain[p] + keep[p] * value[p + 1][j - 1]
        gap = min(gap, mass * abs(take - skip))
        if value[p][j] > skip:
            if slate:
                q = slate[-1]
                gap = min(gap, before * c[q] * c[p] * (r[q] - r[p]))
            slate.append(p)
            before, mass = mass, mass * keep[p]
            j -= 1
    scale = max(1.0, max(prices)) * max(1.0, max(shares))
    tolerance = (16 * cap + 16) * 2.0**-53 * value[0][cap] + (cap + 10) ** 2 * 2.0**-1073 * scale
    if not gap > tolerance:
        return None
    rows = [order[p] for p in slate]
    return _exact_score(rows, lam, prices, shares, dist), tuple(ids[i] for i in rows)


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
    so the result is independent of evaluation order.  A depth-first search
    (`_best_slate`) approximates each slate's value and re-scores those
    within a proven margin of the best by the exact `_mixture_value`, which
    alone decides.  It counts, not searches, every subtree whose exact
    subset-DP bound lies below the best so far, so ``enumerated`` is still
    every slate and ``scored`` those it approximated.  Under slot-independent
    demand and a point span, `_sorted_slate` first tries to prove the answer
    from the price * share order; when it can, no search runs and ``scored``
    is 0.  Negative or NaN prices or shares, and purchase probabilities
    outside [0, 1], are refused: the bounds hold for nonnegative cascade
    terms only.  So are catalogs that list an id twice, and a ``compare``
    slate longer than slot_count, which the optimum may not match.  Refuses
    universes beyond the guard limits rather than truncating silently.
    """
    require_int("slot_count", slot_count, least=1)
    if compare is not None and len(compare) > slot_count:
        raise ValueError(f"compare slate of {len(compare)} products exceeds slot_count {slot_count}")
    if not catalog.universe_size:
        raise ValueError("catalog is empty")
    columns = catalog.columns
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
    ids = columns.ids
    depth = min(slot_count, size)
    lam = _lambda_table(catalog, depth, prior, cost)
    prices = columns.price.tolist()
    shares = [omega] * size if omega is not None else columns.share.tolist()

    for i, pid in enumerate(ids):
        for name, value in (("price", prices[i]), ("revenue share", shares[i])):
            if not value >= 0:  # false for a NaN too
                problem = "negative" if value < 0 else "not a number"
                raise ValueError(f"product {pid!r}: {name} {value} is {problem}")
        for slot, row in enumerate(lam, start=1):
            if not 0 <= row[i] <= 1:
                raise ValueError(
                    f"product {pid!r}: purchase probability {row[i]} at slot {slot} outside [0, 1]"
                )

    certified = _sorted_slate(ids, lam, prices, shares, dist, depth)
    if certified is not None:
        (best_value, best_slate), scored = certified, 0
    else:
        best_value, best_slate, scored, bounded = _best_slate(ids, lam, prices, shares, dist, depth)
        assert scored + bounded == count, (scored, bounded, count)

    compare_value = gap = None
    if compare is not None:
        compare_value = expected_revenue(resolve_inputs(catalog, compare, prior, cost, omega), dist)
        gap = best_value - compare_value
    return OptimizeResult(best_slate, best_value, count, compare_value, gap, scored)
