"""Seeded randomness source with exact bit accounting.

Every random draw in the sampling path goes through :class:`CountingRng`,
which serves bits from a splitmix64 stream and counts exactly how many are
consumed.  This makes the sample complexity of each derandomization scheme
a measurable, reproducible quantity: two runs with the same seed produce
bit-identical draw sequences and identical ``bits_consumed`` counters.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidParameterError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Fixed cost of one Bernoulli realization, in bits.  A 32-bit uniform
# integer is compared against score * 2^32 exactly.
BERNOULLI_BITS = 32


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class CountingRng:
    """splitmix64-backed bit source that counts every bit it serves.

    The generator produces 64-bit words; requested bits are served from a
    buffer so that ``bits_consumed`` increases by exactly the number of
    bits drawn, with no waste from word granularity.  Instances are
    single-owner: share families freely across threads, but never an rng.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._state = self.seed
        self._buffer = 0
        self._buffered = 0
        self.bits_consumed = 0

    def _next64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def draw_bits(self, n: int) -> int:
        """Return a uniform integer in [0, 2^n), consuming exactly n bits."""
        if n < 0:
            raise InvalidParameterError("bit count must be non-negative")
        while self._buffered < n:
            self._buffer = (self._buffer << 64) | self._next64()
            self._buffered += 64
        self._buffered -= n
        value = self._buffer >> self._buffered
        self._buffer &= (1 << self._buffered) - 1
        self.bits_consumed += n
        return value

    def uniform_int(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection from ceil(log2 n)-bit draws.

        Rejection (rather than a modulo) keeps the distribution exactly
        uniform, which the 1/k bias bounds rely on.  Expected attempts are
        strictly below 2.
        """
        if n <= 0:
            raise InvalidParameterError("range must be positive")
        if n == 1:
            return 0
        m = (n - 1).bit_length()
        while True:
            v = self.draw_bits(m)
            if v < n:
                return v

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

    def permutation(self, n: int) -> tuple[int, ...]:
        """Uniform permutation of range(n) via Fisher-Yates with counted bits."""
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.uniform_int(i + 1)
            items[i], items[j] = items[j], items[i]
        return tuple(items)

    def normal(self) -> float:
        """One standard normal via Box-Muller, 64 bits per uniform input."""
        return self.normal_pair()[0]

    def normal_pair(self) -> tuple[float, float]:
        """Two independent standard normals from 128 counted bits."""
        u1 = (self.draw_bits(64) + 1) / 2.0**64  # in (0, 1], log stays finite
        u2 = self.draw_bits(64) / 2.0**64
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        return r * math.cos(theta), r * math.sin(theta)

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
