"""Distance metrics on point pairs, each mapping into [0, 1].

The combinatorial metrics (normalized Hamming, Jaccard distance) return
exact rationals so downstream fairness-band comparisons stay free of
float noise; angular and scaled Euclidean distances return floats.

Metrics read each point's fairness vector (dedicated fairness features
when present, inference features otherwise), matching what the
locality-sensitive hashes see; the pair pass reads them as the dataset's
``fairness_vectors`` matrix.

``Metric.pair_distances`` evaluates a ``PairSet`` in blocks of about
``PAIR_CHUNK_BYTES`` of rows per side, into codes (of the smallest dtype)
into a list of distinct values.  The exact metrics key pairs by integers,
ranked once at the end through a table over the keys' range: Hamming by
the popcount of the XOR of 0/1 rows packed into uint64 words (or the
count of differing floats), Jaccard by |A n B| * (d + 1) + |A u B|, from
popcounts of the AND and the OR.  Every other metric, and any subclass
that overrides ``distance``, calls ``distance`` once per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .core import Dataset, Point
from .errors import DimensionMismatchError, InvalidParameterError, NotBinaryError, ZeroVectorError

Distance = Union[Fraction, float]


def decimal_distance(d: Distance) -> Fraction:
    """A distance as an exact rational, a float at its 15 significant digits: |0.3 - 0.1| is 1/5."""
    return Fraction(Decimal(f"{d:.15g}") if isinstance(d, float) else d)

PAIR_CHUNK_BYTES = 1 << 18


def _vectors(x: Point, y: Point) -> tuple[tuple[float, ...], tuple[float, ...]]:
    u, v = x.fairness_vector, y.fairness_vector
    if len(u) != len(v):
        raise DimensionMismatchError(
            f"points {x.id!r} and {y.id!r} have dimensions {len(u)} and {len(v)}"
        )
    return u, v


def binary_support(vector: tuple[float, ...]) -> frozenset[int]:
    """Indices of the 1-entries of a {0,1}-valued vector."""
    support = set()
    for i, value in enumerate(vector):
        if value == 1.0:
            support.add(i)
        elif value != 0.0:
            raise NotBinaryError("set-valued features must be 0/1")
    return frozenset(support)


@dataclass(frozen=True, eq=False)
class PairSet:
    """Pairs (i, j) of ``n`` points in a fixed order: every pair i < j in
    np.triu_indices order, or the pairs i * n + j of ``keys``, in order."""

    n: int
    keys: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.n * (self.n - 1) // 2 if self.keys is None else self.keys.size

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


def over_pairs(fn: Callable, pairs: PairSet, x: np.ndarray, dtype) -> np.ndarray:
    """The array of fn(xa, xb) over the blocks of the pairs, in dtype, with
    (xa, xb) their rows of x."""
    out, s = np.empty(len(pairs), dtype=dtype), 0
    for a, b in pairs.blocks(x):
        block = fn(a, b)
        out[s : s + block.size] = block
        s += block.size
    return out


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


def _defined_in(obj, name: str) -> type:
    return next(cls for cls in type(obj).__mro__ if name in vars(cls))


class Metric:
    def distance(self, x: Point, y: Point) -> Distance:
        raise NotImplementedError

    def pair_distances(self, data: Dataset, pairs: PairSet) -> tuple[np.ndarray, list[Distance]]:
        """(codes, values) with distance(x, y) == values[codes[p]], of the
        same type, at the points x, y of every pair p, with codes in the
        smallest unsigned dtype."""
        key, rows, bound, decode = self._pair_keys(data, len(pairs))
        keys = over_pairs(key, pairs, rows, np.min_scalar_type(max(bound - 1, 0)))
        lo, hi = (int(keys.min()), int(keys.max()) + 1) if keys.size else (0, 0)
        present = np.zeros(hi - lo, dtype=bool)  # a table over the keys' range only
        for s in range(0, keys.size, PAIR_CHUNK_BYTES // 8):  # chunks keep the intp index temporaries small
            present[keys[s : s + PAIR_CHUNK_BYTES // 8] - lo] = True
        distinct = np.flatnonzero(present) + lo
        return rank_keys(keys, distinct), decode(distinct)

    def _pair_keys(self, data: Dataset, n_pairs: int):
        """(key, rows, bound, decode): key(xa, xb) gives the pairs of a block,
        at the rows (xa, xb) of the matrix rows, int keys below bound, equal
        when their distances are; decode(sorted keys) gives their distances."""
        index: dict = {}  # (type, distance) -> key, numbered by first occurrence
        points = list(data)  # each point built once

        def key(a, b):  # the rows are the point indices
            keys = []
            for u, v in zip(*(side.tolist() for side in np.broadcast_arrays(a, b))):
                d = self.distance(points[u], points[v])
                keys.append(index.setdefault((type(d), d), len(index)))
            return np.array(keys, dtype=np.int64)

        return key, np.arange(len(data)), n_pairs, lambda keys: [d for _, d in index]  # all keys occur


class NormalizedHamming(Metric):
    """(# differing coordinates) / n, exact."""

    def __init__(self, n: int):
        if n < 1:
            raise InvalidParameterError("dimension must be positive")
        self.n = n

    def distance(self, x: Point, y: Point) -> Fraction:
        u, v = _vectors(x, y)
        if len(u) != self.n:
            raise DimensionMismatchError(f"expected dimension {self.n}, got {len(u)}")
        return Fraction(sum(a != b for a, b in zip(u, v)), self.n)

    def _pair_keys(self, data, n_pairs):
        x = data.fairness_vectors
        if _defined_in(self, "distance") is not NormalizedHamming or x.shape[1] != self.n:
            return super()._pair_keys(data, n_pairs)
        bits = _packed_rows(x)  # keys: the number of differing coordinates
        key = (lambda a, b: (a != b).sum(axis=1)) if bits is None else (lambda a, b: popcounts(a ^ b))
        return key, x if bits is None else bits, self.n + 1, lambda keys: [Fraction(k, self.n) for k in keys.tolist()]


class Angular(Metric):
    """Angle between vectors divided by pi; the metric whose hyperplane-hash
    collision probability is exactly 1 - distance."""

    def distance(self, x: Point, y: Point) -> float:
        u, v = _vectors(x, y)
        nu = math.sqrt(math.fsum(a * a for a in u))
        nv = math.sqrt(math.fsum(b * b for b in v))
        if nu == 0.0 or nv == 0.0:
            raise ZeroVectorError("angular distance undefined on the zero vector")
        if u == v:
            return 0.0  # keep the identity axiom exact despite acos noise
        cos = math.fsum(a * b for a, b in zip(u, v)) / (nu * nv)
        return math.acos(min(1.0, max(-1.0, cos))) / math.pi


class JaccardDistance(Metric):
    """1 - |A n B| / |A u B| on set-valued ({0,1}) features, exact.

    Two empty sets are at distance 0.
    """

    def distance(self, x: Point, y: Point) -> Fraction:
        u, v = _vectors(x, y)
        a, b = binary_support(u), binary_support(v)
        union = a | b
        if not union:
            return Fraction(0)
        return Fraction(1) - Fraction(len(a & b), len(union))

    def _pair_keys(self, data, n_pairs):
        x = data.fairness_vectors
        sets = _packed_rows(x) if _defined_in(self, "distance") is JaccardDistance else None
        if sets is None:
            return super()._pair_keys(data, n_pairs)
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

    def distance(self, x: Point, y: Point) -> float:
        u, v = _vectors(x, y)
        norm = math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(u, v)))
        return min(norm / self.scale, 1.0)
