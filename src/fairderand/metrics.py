"""Distance metrics on point pairs, each mapping into [0, 1].

The combinatorial metrics (normalized Hamming, Jaccard distance) return
exact rationals so downstream fairness-band comparisons stay free of
float noise; angular and scaled Euclidean distances return floats.

Metrics read each point's fairness vector (dedicated fairness features
when present, inference features otherwise), matching what the
locality-sensitive hashes see; the pair pass reads them as the dataset's
``fairness_vectors`` matrix, which each metric checks whole when a pass
starts, so an input it is undefined on fails whichever pairs are read.

The one pass over pairs, ``measure.pair_classes``, reads a ``PairSet`` in
blocks of about ``PAIR_CHUNK_BYTES`` of rows per side and keys each pair
by an integer; its sorted distinct keys decode to the distances.  Hamming
keys by the popcount of the XOR of 0/1 rows packed into uint64 words (or
the count of differing floats), Jaccard by |A n B| * (d + 1) + |A u B|,
from popcounts of the AND and the OR.  The float metrics compute a
block's distances as arrays, with ``math.fsum`` sums and libm's
``math.acos``, and number its distinct values by first occurrence.  A row
(angular) or a difference (scaled Euclidean) whose largest magnitude lies
outside [2**-500, 2**500] is first scaled by a power of two, which is
exact, so no square or product overflows or underflows; every other
value is the unscaled computation's, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .core import Dataset
from .errors import DimensionMismatchError, InvalidParameterError, NotBinaryError, ZeroVectorError

Distance = Union[Fraction, float]


def decimal_distance(d: Distance) -> Fraction:
    """A distance as an exact rational, a float at its 15 significant digits: |0.3 - 0.1| is 1/5."""
    return Fraction(Decimal(f"{d:.15g}") if isinstance(d, float) else d)

PAIR_CHUNK_BYTES = 1 << 18


@dataclass(frozen=True, eq=False)
class PairSet:
    """Pairs (i, j) of ``n`` points in a fixed order: every pair i < j in
    np.triu_indices order, or the pairs i * n + j of ``keys``, in order."""

    n: int
    keys: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.n * (self.n - 1) // 2 if self.keys is None else self.keys.size

    def row_starts(self) -> np.ndarray:
        """The position of each row i's first pair (i, i + 1) among every pair in np.triu_indices order, as int64."""
        rows = np.arange(self.n, dtype=np.int64)
        return rows * (2 * self.n - rows - 1) // 2

    def blocks(self, *xs: np.ndarray) -> Iterator[list]:
        """The rows xa, xb of each x at the two points of consecutive blocks
        of pairs, about PAIR_CHUNK_BYTES of rows and of the 64 bytes a pair
        takes in two int64 indices and the int64 arrays a block forms."""
        step = max(1, PAIR_CHUNK_BYTES // (sum(x[:1].nbytes for x in xs) + 64))
        if self.keys is None:  # a row and a run of later rows, read in place
            return ([v for x in xs for v in (x[r], x[s : s + step])]
                    for r in range(self.n - 1) for s in range(r + 1, self.n, step))
        sides = (np.divmod(self.keys[s : s + step], self.n) for s in range(0, self.keys.size, step))  # gathered
        return ([v for x in xs for v in (x.take(i, axis=0), x.take(j, axis=0))] for i, j in sides)


def rank_keys(keys: np.ndarray, distinct: np.ndarray) -> np.ndarray:
    """Each key's rank among the sorted distinct keys, which hold every key,
    in the smallest unsigned dtype: ranked in place through a table over the
    keys' range, a chunk of PAIR_CHUNK_BYTES // 8 keys (and intp indices) at a time."""
    (lo, hi), step = ((int(distinct[0]), int(distinct[-1]) + 1) if distinct.size else (0, 0)), PAIR_CHUNK_BYTES // 8
    rank = np.zeros(hi - lo, dtype=np.min_scalar_type(max(distinct.size - 1, 0)))
    rank[distinct - lo] = np.arange(distinct.size)
    for s in range(0, keys.size, step):
        keys[s : s + step] = rank[keys[s : s + step] - lo]
    return keys.astype(rank.dtype, copy=False)


def popcounts(words: np.ndarray) -> np.ndarray:
    """Set bits per row of a uint64 word matrix, as int64."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def _packed_rows(x: np.ndarray) -> Optional[np.ndarray]:
    """The rows of a 0/1 matrix as bits in whole uint64 words, or None when
    some entry is neither 0 nor 1."""
    if not np.isin(x, (0.0, 1.0)).all():
        return None
    return np.packbits(np.pad(x.astype(bool), [(0, 0), (0, -x.shape[1] % 64)]), axis=1).view(np.uint64)


def _scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x * 2**-e, e) with e per row: 0 where its largest magnitude lies in
    [2**-500, 2**500], else the power of two that brings it into [1/2, 1)."""
    top = np.abs(x).max(axis=-1)
    e = np.where((top > 2.0**500) | (top < 2.0**-500), np.frexp(top)[1], 0)  # frexp(0) gives 0
    return np.ldexp(x, -e[:, None]), e


def _fsums(terms: np.ndarray) -> np.ndarray:
    """Each row's sum, correctly rounded (``math.fsum``'s, which ``np.sum``'s is not)."""
    return np.fromiter(map(math.fsum, terms.tolist()), np.float64, len(terms))


class Metric:
    """A distance between the rows of a dataset's fairness matrix, into
    [0, 1], read only over blocks of pairs by ``measure.pair_classes``.  The
    one extension point is ``_pair_keys``, which checks the whole matrix
    and keys a block's pairs.  Its base form keys float distances: a float
    metric gives only ``_float_blocks(x)``, the rows a pass reads and
    block(xa, xb), the distances of a block's pairs at their rows."""

    def _pair_keys(self, data: Dataset, n_pairs: int):
        """(key, rows, bound, decode): key(xa, xb) gives the pairs of a block,
        at the rows (xa, xb) of the matrix rows, int keys below bound, equal
        when their distances are; decode(sorted keys) gives their distances."""
        rows, block = self._float_blocks(data.fairness_vectors)
        index: dict[float, int] = {}  # distance -> key, numbered by first occurrence

        def key(a, b):
            values, inverse = np.unique(block(a, b), return_inverse=True)
            return np.array([index.setdefault(v, len(index)) for v in values.tolist()], np.int64)[inverse]

        return key, rows, n_pairs, lambda keys: np.array(list(index), dtype=object)[keys].tolist()

    def _float_blocks(self, x: np.ndarray) -> tuple[np.ndarray, Callable]:
        raise NotImplementedError


class NormalizedHamming(Metric):
    """(# differing coordinates) / n, exact."""

    def __init__(self, n: int):
        if n < 1:
            raise InvalidParameterError("dimension must be positive")
        self.n = n

    def _pair_keys(self, data, n_pairs):
        x = data.fairness_vectors
        if x.shape[1] != self.n:
            raise DimensionMismatchError(f"expected dimension {self.n}, got {x.shape[1]}")
        bits = _packed_rows(x)  # keys: the number of differing coordinates
        key = (lambda a, b: (a != b).sum(axis=1)) if bits is None else (lambda a, b: popcounts(a ^ b))
        return key, x if bits is None else bits, self.n + 1, lambda keys: [Fraction(k, self.n) for k in keys.tolist()]


class Angular(Metric):
    """Angle between vectors divided by pi; the metric whose hyperplane-hash
    collision probability is exactly 1 - distance."""

    def _float_blocks(self, x):
        x, e = _scaled(x)  # the angle of a row does not change with its scale
        norms = np.sqrt(_fsums(x * x))  # each point's, once
        if not norms.all():
            raise ZeroVectorError("angular distance undefined on the zero vector")

        def block(a, b):  # a row is the scaled point, its exponent e and its norm
            u, v = a[..., :-2], b[..., :-2]
            cos = _fsums(u * v) / (a[..., -1] * b[..., -1])
            cos = np.fmin(1.0, np.fmax(-1.0, cos))  # Python's min(1, max(-1, cos)), for NaN too
            angles = np.fromiter(map(math.acos, cos.tolist()), np.float64, cos.size) / math.pi
            # equal rows and exponents: keep the identity axiom exact despite acos noise
            return np.where((a[..., :-1] == b[..., :-1]).all(axis=-1), 0.0, angles)

        return np.column_stack([x, e, norms]), block


class JaccardDistance(Metric):
    """1 - |A n B| / |A u B| on set-valued ({0,1}) features, exact.

    Two empty sets are at distance 0.
    """

    def _pair_keys(self, data, n_pairs):
        x = data.fairness_vectors
        sets = _packed_rows(x)
        if sets is None:
            raise NotBinaryError("set-valued features must be 0/1")
        width = x.shape[1] + 1

        def key(a, b):  # |A n B| * width + |A u B|
            return popcounts(a & b) * width + popcounts(a | b)

        def decode(keys):
            inter, union = np.divmod(keys, width)
            return [Fraction(1) - Fraction(a, u) if u else Fraction(0) for a, u in zip(inter.tolist(), union.tolist())]

        return key, sets, width * width, decode


class ScaledEuclidean(Metric):
    """min(||x - y||_2 / scale, 1).  Supports constructions and strategic
    costs on real vectors; it has no locality-sensitive hash family here."""

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise InvalidParameterError("scale must be positive")
        self.scale = float(scale)

    def _float_blocks(self, x):
        def block(a, b):
            with np.errstate(over="ignore"):  # a difference, norm or ratio past the largest double is inf, at 1.0
                d, e = _scaled(a - b)  # the norm of a - b is 2**e times that of d
                return np.fmin(np.ldexp(np.sqrt(_fsums(d * d)), e) / self.scale, 1.0)

        return x, block
