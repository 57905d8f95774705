"""Seeded randomness source with exact bit accounting.

Every random draw in the package goes through :class:`CountingRng`, which
serves bits from a splitmix64 stream and counts exactly how many are
consumed.  This makes the sample complexity of each derandomization scheme
a measurable, reproducible quantity: two runs with the same seed produce
bit-identical draw sequences and identical ``bits_consumed`` counters.
Each array draw returns what the matching run of scalar draws returns.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import InvalidParameterError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Fixed cost of one Bernoulli realization, in bits.  A 32-bit uniform
# integer is compared against score * 2^32 exactly.
BERNOULLI_BITS = 32
ARRAY_ROUND = 1 << 13  # chunks read per round of an array draw


def _mix64(z):
    """splitmix64's output mix, of an int or elementwise of a uint64 array."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class CountingRng:
    """splitmix64-backed bit source that counts every bit it serves.

    Word w of the stream is mix64(seed + (w + 1) * GOLDEN), and the stream
    reads each word from its high bit down.  The one piece of state is the
    bit position, ``bits_consumed``: a draw of n bits reads the next n bits
    of the stream, with no waste from word granularity.  Instances are
    single-owner: share families freely across threads, but never an rng.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self.bits_consumed = 0

    def draw_bits(self, n: int) -> int:
        """Return a uniform integer in [0, 2^n), consuming exactly n bits."""
        if n < 0:
            raise InvalidParameterError("bit count must be non-negative")
        end = self.bits_consumed + n
        first, last = self.bits_consumed >> 6, (end + 63) >> 6
        value = 0
        for w in range(first, last):
            value = value << 64 | _mix64((self.seed + (w + 1) * _GOLDEN) & _MASK64)
        self.bits_consumed = end
        return (value >> (last * 64 - end)) & ((1 << n) - 1)

    def _chunks(self, m: int, count: int) -> np.ndarray:
        """The next ``count`` m-bit chunks (1 <= m <= 64) as uint64, without
        consuming them.  Every 64 chunks span exactly m words, so chunk r of
        each row of 64 starts at the same word and bit offset within the row."""
        start, rows = self.bits_consumed, -(-count // 64)
        w = np.arange((start >> 6) + 1, (start >> 6) + rows * m + 3, dtype=np.uint64)
        z = _mix64(w * _GOLDEN + self.seed)  # wraps mod 2^64
        at = np.arange(64, dtype=np.uint64) * np.uint64(m) + np.uint64(start & 63)
        word, o = (at >> np.uint64(6)).astype(np.intp), at & np.uint64(63)
        rows_of_words = np.ndarray((rows, m + 2), np.uint64, z, 0, (8 * m, 8))  # row q from word q*m
        top = rows_of_words[:, word] << o
        top |= rows_of_words[:, word + 1] >> (64 - o)  # numpy shifts by 64 to 0
        top >>= np.uint64(64 - m)
        return top.reshape(-1)[:count]

    def uniform_int(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection from ceil(log2 n)-bit draws.

        Rejection (rather than a modulo) keeps the distribution exactly
        uniform, which the 1/k bias bounds rely on.  Expected attempts are
        strictly below 2.
        """
        if n <= 0:
            raise InvalidParameterError("range must be positive")
        m = (n - 1).bit_length()  # 0 for n = 1, which draws nothing
        while True:
            v = self.draw_bits(m)
            if v < n:
                return v

    def uniform_ints(self, n: int, size: int) -> np.ndarray:
        """``size`` successive ``uniform_int(n)`` draws (n <= 2^64), as int64,
        or uint64 above 2^63: rounds of at most ARRAY_ROUND m-bit chunks keep
        those below n, and the last round seeks past the last chunk it keeps."""
        if not 0 < n <= 1 << 64:
            raise InvalidParameterError("range must lie in [1, 2^64]")
        out, filled, m = np.zeros(size, np.int64 if n <= 1 << 63 else np.uint64), 0, (n - 1).bit_length()
        while filled < size and m:  # m = 0: n = 1 draws nothing
            chunks = self._chunks(m, min(ARRAY_ROUND, 2 * (size - filled) + 16))
            kept = np.flatnonzero(chunks <= np.uint64(n - 1))[: size - filled]
            out[filled : filled + kept.size] = chunks[kept]
            filled += kept.size
            self.bits_consumed += m * (int(kept[-1]) + 1 if filled == size else chunks.size)
        return out

    def bernoulli(self, p: Fraction) -> int:
        """Draw a {0,1} bit that is 1 with probability p, at a fixed 32-bit cost.

        Exact for p in {0, 1} and for any p with denominator dividing 2^32;
        otherwise within 2^-32 of p.
        """
        if not 0 <= p <= 1:
            raise InvalidParameterError(f"probability {p} outside [0, 1]")
        u = self.draw_bits(BERNOULLI_BITS)
        # u < p * 2^32, compared in exact integer arithmetic
        return 1 if u * p.denominator < p.numerator * (1 << BERNOULLI_BITS) else 0

    def bernoullis(self, p: Fraction, size: int) -> np.ndarray:
        """``size`` successive ``bernoulli(p)`` draws as a bool array: for an
        integer u, u * den < num * 2^32 iff u < ceil(num * 2^32 / den)."""
        if not 0 <= p <= 1:
            raise InvalidParameterError(f"probability {p} outside [0, 1]")
        return self.uniform_ints(1 << BERNOULLI_BITS, size) < -((-p.numerator << BERNOULLI_BITS) // p.denominator)

    def normal_pair(self) -> tuple[float, float]:
        """Two independent standard normals from 128 counted bits."""
        u1 = (self.draw_bits(64) + 1) / 2.0**64  # in (0, 1], log stays finite
        u2 = self.draw_bits(64) / 2.0**64
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        return r * math.cos(theta), r * math.sin(theta)

    def normals(self, shape) -> np.ndarray:
        """Standard normals in row order, a Box-Muller pair (as in ``normal_pair``)
        per two 64-bit chunks, in rounds of ARRAY_ROUND (even) chunks."""
        out = np.empty(int(np.prod(shape)) + 1, dtype=float)
        for s in range(0, out.size - 1, ARRAY_ROUND):
            u = self._chunks(64, min(ARRAY_ROUND, (out.size - s) // 2 * 2))
            self.bits_consumed += 64 * u.size
            r = np.sqrt(-2.0 * np.log((u[0::2] + 1.0) * 2.0**-64))
            theta = 2.0 * math.pi * (u[1::2] * 2.0**-64)
            out[s : s + u.size] = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1).reshape(-1)
        return out[:-1].reshape(shape)

    def permutation(self, n: int) -> tuple[int, ...]:
        """Uniform permutation of range(n) via Fisher-Yates with counted bits."""
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.uniform_int(i + 1)
            items[i], items[j] = items[j], items[i]
        return tuple(items)

    def unit_vector(self, dim: int) -> tuple[float, ...]:
        """Uniform direction in R^dim from normalized Box-Muller normals."""
        if dim < 1:
            raise InvalidParameterError("dimension must be positive")
        while True:
            values: list[float] = []
            while len(values) < dim:
                values.extend(self.normal_pair())
            del values[dim:]
            norm = math.sqrt(sum(v * v for v in values))
            if norm > 0.0:
                return tuple(v / norm for v in values)
