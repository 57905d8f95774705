"""Seeded randomness source with exact bit accounting.

Every random draw in the package goes through :class:`CountingRng`, which
serves bits from a splitmix64 stream and counts exactly how many are
consumed.  This makes the sample complexity of each derandomization scheme
a measurable, reproducible quantity: two runs with the same seed produce
bit-identical draw sequences and identical ``bits_consumed`` counters.
It serves arrays of uniform integers by rejection and of standard
normals by Box-Muller, each what a run of scalar draws from the same bits
returns (the scalar draws are the tests' references).  No draw realizes a
score as a Bernoulli bit: the single-point quantities of ``measure`` are
closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

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
    bit position, ``bits_consumed``: a draw reads the next bits of the
    stream, with no waste from word granularity.  Instances are
    single-owner: share families freely across threads, but never an rng.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self.bits_consumed = 0

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

    def uniform_ints(self, n: int, size: int) -> np.ndarray:
        """``size`` uniform integers in [0, n) (n <= 2^64), as int64, or
        uint64 above 2^63, each the first of successive m = ceil(log2 n)-bit
        chunks below n.  Rejection (rather than a modulo) keeps the
        distribution exactly uniform, which the 1/k bias bounds rely on;
        expected attempts are strictly below 2.  Rounds of at most
        ARRAY_ROUND chunks keep those below n, and the last round seeks
        past the last chunk it keeps."""
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

    def normals(self, shape) -> np.ndarray:
        """Standard normals in row order, a Box-Muller pair per two 64-bit
        chunks u1, u2: r = sqrt(-2 ln((u1 + 1) / 2^64)) (the log stays
        finite), theta = 2 pi u2 / 2^64, then r cos(theta) and r sin(theta),
        in rounds of ARRAY_ROUND (even) chunks; an odd count drops the last
        sine and consumes no bits for it."""
        out = np.empty(int(np.prod(shape)) + 1, dtype=float)
        for s in range(0, out.size - 1, ARRAY_ROUND):
            u = self._chunks(64, min(ARRAY_ROUND, (out.size - s) // 2 * 2))
            self.bits_consumed += 64 * u.size
            r = np.sqrt(-2.0 * np.log((u[0::2] + 1.0) * 2.0**-64))
            theta = 2.0 * math.pi * (u[1::2] * 2.0**-64)
            out[s : s + u.size] = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1).reshape(-1)
        return out[:-1].reshape(shape)
