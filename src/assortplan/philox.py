"""Philox4x64-10 streams of simulated customers, a block of customers at a time.

Customer t of a run draws from numpy's ``Generator(Philox(key=seed,
counter=t << 128))``.  The streams are counter-based, so a numpy kernel
computes the raw words of a whole block of customers at once, equal bit for
bit to numpy's own, and turns them into the uniforms ``random()`` returns;
``RatingDraws`` places a numpy ``Generator`` on a customer's stream after
the uniforms it used, for the draws the kernel does not make.
"""

from __future__ import annotations

import numpy as np

# Customers per kernel call: the kernel's arrays hold this many customers'
# draws at a time, however long the horizon.
BLOCK = 4096

# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products ``m * x``, from 32-bit halves.

    The partial products are summed in place, in fresh arrays, to keep a
    block's temporaries few.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    lo_hi, hi_lo = x_lo * m_hi, x_hi * m_lo
    middle, high = x_lo, x_hi
    middle *= m_lo
    middle >>= _SHIFT32
    high *= m_hi
    for part in (lo_hi, hi_lo):
        high += part >> _SHIFT32
        part &= _LOW32
        middle += part
    middle >>= _SHIFT32
    high += middle
    return high, x * np.uint64(m)


def philox_raw(seed: int, customers: np.ndarray, blocks: int) -> np.ndarray:
    """The first ``4 * blocks`` raw words of each listed customer's stream.

    Row i equals ``np.random.Philox(key=seed, counter=t << 128).random_raw``
    for customer t = customers[i]: the Philox4x64-10 blocks at counters
    ``(t << 128) + b``, b = 1..blocks, under the key (seed, 0).
    """
    shape = (len(customers), blocks)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    c1 = c3 = np.zeros(shape, dtype=np.uint64)
    c2 = np.broadcast_to(np.asarray(customers, dtype=np.uint64)[:, None], shape)
    k0, k1 = seed, 0
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = (k0 + _PHILOX_W[0]) % 2**64
            k1 = (k1 + _PHILOX_W[1]) % 2**64
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        hi1 ^= c1
        hi1 ^= np.uint64(k0)
        hi0 ^= c3
        hi0 ^= np.uint64(k1)
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(len(customers), 4 * blocks)


def draw_blocks(seed: int, horizon: int, width: int):
    """Yield (first customer, raw words, uniforms) for blocks of ``BLOCK`` customers.

    Each row holds at least ``width`` uniforms, in the order the customer's
    numpy ``Generator`` would return them from ``random()``.
    """
    blocks = -(-width // 4)
    for first in range(1, horizon + 1, BLOCK):
        customers = np.arange(first, min(first + BLOCK, horizon + 1), dtype=np.uint64)
        raw = philox_raw(seed, customers, blocks)
        yield first, raw, (raw >> np.uint64(11)) * 2.0**-53


class RatingDraws:
    """A numpy Generator placed on a customer's stream after its used uniforms.

    The rating is drawn by numpy's own normal sampler from the words that
    follow the customer's span and slot uniforms, as the customer's
    ``Generator`` would have drawn it.
    """

    def __init__(self, seed: int):
        self._bits = np.random.Philox(key=seed)
        self._rng = np.random.Generator(self._bits)
        self._key = [seed, 0]

    def after(self, t: int, used: int, raw: np.ndarray) -> np.random.Generator:
        block, pos = divmod(used, 4)
        if pos:
            counter, buffer = block + 1, raw[4 * block : 4 * block + 4].tolist()
        else:
            # An empty buffer: numpy steps the counter to the next block first.
            counter, buffer, pos = block, [0, 0, 0, 0], 4
        self._bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": [counter, 0, t, 0], "key": self._key},
            "buffer": buffer,
            "buffer_pos": pos,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._rng
