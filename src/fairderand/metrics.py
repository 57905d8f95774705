"""Distance metrics on point pairs, each mapping into [0, 1].

The combinatorial metrics (normalized Hamming, Jaccard distance) return
exact rationals so downstream fairness-band comparisons stay free of
float noise; angular and scaled Euclidean distances return floats.

Metrics read each point's fairness vector (dedicated fairness features
when present, inference features otherwise), matching what the
locality-sensitive hashes see.

``Metric.pair_distances`` evaluates many pairs at once as codes into a
list of distinct values.  The two exact metrics compute it from integer
count arrays; every other metric, and any subclass that overrides
``distance``, calls ``distance`` once per pair.  Jaccard packs each set
into whole uint64 words and popcounts the AND and the OR of two rows;
Hamming packs 0/1 vectors the same way and popcounts the XOR, and compares
the floats of any other vectors coordinate by coordinate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import Point
from .errors import DimensionMismatchError, InvalidParameterError, ZeroVectorError

Distance = Union[Fraction, float]

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
            raise InvalidParameterError("set-valued features must be 0/1")
    return frozenset(support)


def over_pair_chunks(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    i: np.ndarray,
    j: np.ndarray,
    row_bytes: int,
) -> np.ndarray:
    """The int64 array of fn(i[s], j[s]) over consecutive slices s of the
    pairs.  Each slice gathers about PAIR_CHUNK_BYTES of rows per side, so
    the temporaries stay small however many pairs there are."""
    out = np.empty(len(i), dtype=np.int64)
    step = max(1, PAIR_CHUNK_BYTES // max(row_bytes, 1))
    for s in range(0, len(i), step):
        out[s : s + step] = fn(i[s : s + step], j[s : s + step])
    return out


def popcounts(words: np.ndarray) -> np.ndarray:
    """Set bits per row of a uint64 word matrix, as int64."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def _packed_rows(x: np.ndarray) -> Optional[np.ndarray]:
    """The rows of a 0/1 matrix as bits in whole uint64 words, or None when
    some entry is neither 0 nor 1."""
    if not np.isin(x, (0.0, 1.0)).all():
        return None
    return np.packbits(np.pad(x.astype(bool), [(0, 0), (0, -x.shape[1] % 64)]), axis=1).view(np.uint64)


def _rank_in_place(keys: np.ndarray) -> list[int]:
    """Replace each key by its index among the sorted distinct keys, and
    return those keys."""
    distinct = np.unique(keys)
    step = PAIR_CHUNK_BYTES // keys.itemsize
    for s in range(0, keys.size, step):
        keys[s : s + step] = np.searchsorted(distinct, keys[s : s + step])
    return distinct.tolist()


def _defined_in(obj, name: str) -> type:
    return next(cls for cls in type(obj).__mro__ if name in vars(cls))


def fairness_matrix(points: Sequence[Point]) -> Optional[np.ndarray]:
    """The fairness vectors as rows of one float matrix, or None when their
    lengths differ (the per-pair path then raises the mismatch)."""
    vectors = [p.fairness_vector for p in points]
    if len({len(v) for v in vectors}) != 1:
        return None
    return np.array(vectors, dtype=float)


class Metric:
    def distance(self, x: Point, y: Point) -> Distance:
        raise NotImplementedError

    def pair_distances(
        self, points: Sequence[Point], i: np.ndarray, j: np.ndarray
    ) -> tuple[np.ndarray, list[Distance]]:
        """(codes, values) with distance(points[i[p]], points[j[p]]) ==
        values[codes[p]], of the same type, for every pair index p.  codes
        is a new int64 array that the caller may overwrite."""
        index: dict = {}
        values: list[Distance] = []
        codes = np.empty(len(i), dtype=np.int64)
        for p, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
            d = self.distance(points[a], points[b])
            code = index.setdefault((type(d), d), len(values))
            if code == len(values):
                values.append(d)
            codes[p] = code
        return codes, values


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

    def pair_distances(self, points, i, j):
        x = fairness_matrix(points) if _defined_in(self, "distance") is NormalizedHamming else None
        if x is None or x.shape[1] != self.n:
            return super().pair_distances(points, i, j)
        bits = _packed_rows(x)
        if bits is not None:
            codes = over_pair_chunks(lambda a, b: popcounts(bits[a] ^ bits[b]), i, j, bits[0].nbytes)
        else:
            codes = over_pair_chunks(lambda a, b: (x[a] != x[b]).sum(axis=1, dtype=np.int64), i, j, x[0].nbytes)
        present = np.zeros(self.n + 1, dtype=bool)  # codes are the counts 0..n
        present[codes] = True
        rank = np.cumsum(present, dtype=np.int64) - 1
        return rank[codes], [Fraction(int(c), self.n) for c in np.flatnonzero(present)]


class Angular(Metric):
    """Angle between vectors divided by pi; the metric whose hyperplane-hash
    collision probability is exactly 1 - distance."""

    def distance(self, x: Point, y: Point) -> float:
        u, v = _vectors(x, y)
        nu = math.sqrt(sum(a * a for a in u))
        nv = math.sqrt(sum(b * b for b in v))
        if nu == 0.0 or nv == 0.0:
            raise ZeroVectorError("angular distance undefined on the zero vector")
        if u == v:
            return 0.0  # keep the identity axiom exact despite acos noise
        cos = sum(a * b for a, b in zip(u, v)) / (nu * nv)
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

    def pair_distances(self, points, i, j):
        x = fairness_matrix(points) if _defined_in(self, "distance") is JaccardDistance else None
        sets = None if x is None else _packed_rows(x)
        if sets is None:
            return super().pair_distances(points, i, j)
        width = x.shape[1] + 1

        def sizes(a, b):  # |A n B| * width + |A u B|, one integer per pair
            return popcounts(sets[a] & sets[b]) * width + popcounts(sets[a] | sets[b])

        codes = over_pair_chunks(sizes, i, j, sets[0].nbytes)
        values = []
        for key in _rank_in_place(codes):
            inter, union = divmod(key, width)
            values.append(Fraction(1) - Fraction(inter, union) if union else Fraction(0))
        return codes, values


class ScaledEuclidean(Metric):
    """min(||x - y||_2 / scale, 1).  Supports constructions and strategic
    costs on real vectors; it has no locality-sensitive hash family here."""

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise InvalidParameterError("scale must be positive")
        self.scale = float(scale)

    def distance(self, x: Point, y: Point) -> float:
        u, v = _vectors(x, y)
        norm = math.sqrt(sum((a - b) ** 2 for a, b in zip(u, v)))
        return min(norm / self.scale, 1.0)
