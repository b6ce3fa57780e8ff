"""The oracle's blocked numpy walk, kept as a reference for the subset-DP search.

``revenue._best_slate`` walked the ordered-slate tree this way, extending up
to ``_BLOCK`` parents at a time, until the exact subset recurrence replaced
its ``unit`` bound.  It is frozen here verbatim so that the search can be
checked slate for slate and bit for bit at sizes the scalar
``reference_oracle`` cannot list in time (n = 12, k = 8 has 19.96M slates).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from assortplan.revenue import MAX_SLOTS, MAX_UNIVERSE, AttentionSpanDist, _exact_score, enumeration_count

# Parent slates one step of the oracle's walk extends together.
_BLOCK = 512
# The walk packs a slate into one int64, this many bits per slot.
_CODE_BITS = 4
_CODE_MASK = (1 << _CODE_BITS) - 1
assert MAX_UNIVERSE <= _CODE_MASK + 1 and MAX_SLOTS * _CODE_BITS < 63


# Infinite prices (Product accepts them) give inf and NaN approximations.
@np.errstate(invalid="ignore", over="ignore")
def blocked_walk(
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
    below = [enumeration_count(count - m, depth - m) for m in range(depth + 1)]
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
            value = _exact_score(row, lam, prices, shares, dist)
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
