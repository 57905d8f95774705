"""Hash families with exactly known distributional properties.

Every classifier in this package thresholds a point x at

    u(x) = ((a * e(x) + c) mod k) + 1,

where e(x) is the embedded bucket of x under a bucketing, and (a, c) is a
member of the affine family over that bucketing's bucket set.  Two kinds
of family live here:

* the affine pairwise-independent family over Z_k: for any two embedded
  buckets, the joint distribution of their hash values is exactly uniform
  over [k]^2 (each cell hit by exactly one (a, c) coefficient pair;
  Carter & Wegman 1979), so the threshold construction needs to know
  nothing about where the buckets came from;

* bucketing families, from which e is drawn: a fixed bucketing (one
  member, no random bits), or an atomic locality-sensitive family (bit
  sampling, min-wise permutation hashing, random-hyperplane signs) whose
  collision probability for a uniformly sampled member equals exactly
  1 - d(x, x') for the paired metric.  LSH members are never
  concatenated: amplification would turn the collision probability into
  (1 - d)^m and break the fairness analysis.

A bucketing family samples one member through a CountingRng (one
classifier) and evaluates members over points one way only: its
``embedder(keys, embed)`` maps a block of points and their ``vectors``
(read and checked once, so the first bad point raises what ``apply``
raises) to the (points, members) matrix of embed(member(point)), or one
column for a fixed bucketing.  The members' ``keys`` (coordinate indices,
rank rows, normals) come from the whole enumeration or a CountingRng ``draw``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Sequence

import numpy as np

from .core import Point
from .errors import (
    DimensionMismatchError,
    FamilyTooLargeError,
    InvalidParameterError,
    NotEnumerableError,
    UnknownBucketError,
)
from .metrics import binary_support, fairness_matrix
from .rng import CountingRng

ENUMERATION_CAP = 10**6
MINHASH_ENUM_MAX = 7


@dataclass(frozen=True)
class BitBudget:
    """Random bits consumed to sample one classifier.

    ``pi_bits`` counts the [k]-range draws (the affine hash coefficients,
    or the single threshold index of the random-threshold scheme);
    ``lsh_bits`` counts the locality-sensitive member draw.
    """

    pi_bits: int
    lsh_bits: int

    @property
    def total(self) -> int:
        return self.pi_bits + self.lsh_bits

    def as_dict(self) -> dict:
        return {"pi_bits": self.pi_bits, "lsh_bits": self.lsh_bits, "total": self.total}


@dataclass(frozen=True)
class PiHash:
    """One member of the affine family: b -> ((a * embed(b) + c) mod k) + 1."""

    a: int
    c: int


class PiFamily:
    """Affine pairwise-independent hash family from a finite bucket set into [k].

    Exact pairwise independence on the embedded domain requires every
    pairwise difference of embedded values to be a unit mod k.  Buckets are
    embedded as consecutive integers 0..|B|-1, so the condition is
    gcd(j, k) = 1 for j = 1..|B|-1; any prime k >= |B| qualifies, and so
    does any k when there are at most two buckets.

    Over a single bucket a * 0 = 0, so a is fixed at 0 and not drawn: the
    family is the k shared thresholds u = c + 1, drawn with ceil(log2 k)
    bits.
    """

    def __init__(self, k: int, buckets: Sequence[Hashable]):
        if k < 1:
            raise InvalidParameterError("k must be positive")
        buckets = tuple(buckets)
        if not buckets:
            raise InvalidParameterError("bucket set must be non-empty")
        if len(set(buckets)) != len(buckets):
            raise InvalidParameterError("buckets must be distinct")
        if k < len(buckets):
            raise InvalidParameterError(f"k={k} smaller than bucket count {len(buckets)}")
        for j in range(1, len(buckets)):
            if math.gcd(j, k) != 1:
                raise InvalidParameterError(
                    f"embedded difference {j} is not a unit mod {k}; "
                    f"pairwise independence would fail (use a prime k >= {len(buckets)})"
                )
        self.k = k
        self.buckets = buckets
        self.embed = {b: i for i, b in enumerate(buckets)}
        self.a_range = k if len(buckets) > 1 else 1

    def embed_value(self, bucket: Hashable) -> int:
        try:
            return self.embed[bucket]
        except KeyError:
            raise UnknownBucketError(bucket) from None

    def value(self, h: PiHash, bucket: Hashable) -> int:
        """Hash value in [1..k]."""
        return (h.a * self.embed_value(bucket) + h.c) % self.k + 1

    def sample(self, rng: CountingRng) -> PiHash:
        """Uniform (a, c), a first; rejection keeps uniformity exact."""
        return PiHash(rng.uniform_int(self.a_range), rng.uniform_int(self.k))

    def sample_batch(self, rng: CountingRng, trials: int) -> Callable[[np.ndarray], np.ndarray]:
        """``trials`` uniform members (every a, then every c) by array draws,
        as a map from embedded buckets to the residues (a * e + c) mod k,
        which are the hash values minus one."""
        # a and c in the smallest dtype that holds a * e + c < k * k
        a = rng.uniform_ints(self.a_range, trials).astype(np.min_scalar_type(self.k**2))
        c = rng.uniform_ints(self.k, trials).astype(a.dtype)
        if self.a_range == 1:
            return lambda e: c  # a = 0: one shared threshold per member
        return lambda e: (a * e.astype(a.dtype) + c) % self.k  # e < k

    @property
    def size(self) -> int:
        return self.a_range * self.k

    def enumerate(self) -> list[PiHash]:
        """All members, each of equal weight."""
        if self.size > ENUMERATION_CAP:
            raise FamilyTooLargeError(f"{self.size} members exceeds cap {ENUMERATION_CAP}")
        return [PiHash(a, c) for a in range(self.a_range) for c in range(self.k)]

    @cached_property
    def coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """(a, c) arrays of every member, in enumeration order."""
        a = np.repeat(np.arange(self.a_range, dtype=np.min_scalar_type(self.k**2)), self.k)
        c = np.tile(np.arange(self.k, dtype=a.dtype), self.a_range)
        return a, c

    def params(self, h: PiHash) -> dict:
        """The member's entry in a derandomize report; over one bucket it is
        the shared threshold u."""
        if self.a_range == 1:
            return {"u": h.c + 1, "k": self.k}
        return {"a": h.a, "c": h.c, "k": self.k}


class BucketingMember:
    """One bucketing function: point -> bucket."""

    def apply(self, point: Point) -> Hashable:
        raise NotImplementedError

    def params(self) -> dict:
        """The member's entry in a derandomize report."""
        return {}


class BucketingFamily:
    """A uniform family of bucketings into the finite set ``bucket_values``,
    with the block embedding of the module docstring."""

    bucket_values: tuple[Hashable, ...]

    def sample(self, rng: CountingRng) -> BucketingMember:
        raise NotImplementedError

    def enumerate(self) -> list[BucketingMember]:
        raise NotImplementedError

    @property
    def enumerable_size(self) -> int | None:
        """Family size when enumeration is supported, else None."""
        return None

    def vectors(self, points: Sequence[Point]) -> np.ndarray | None:
        return None

    def keys(self, members: Sequence[BucketingMember]) -> np.ndarray:
        raise NotImplementedError

    def draw(self, rng: CountingRng, trials: int) -> np.ndarray:
        """The keys of ``trials`` uniform members; here, by enumeration index."""
        return self.keys(self.enumerate())[rng.uniform_ints(self.enumerable_size, trials)]

    def embedder(self, keys: np.ndarray, embed: Callable[[Hashable], int]) -> Callable:
        raise NotImplementedError


class FixedFamily(BucketingFamily):
    """A deterministic bucketing as a one-member family: it draws no bits,
    not even in ``draw``, and embeds one column that all members share."""

    def __init__(self, member: BucketingMember, bucket_values: Sequence[Hashable]):
        self.member = member
        self.bucket_values = tuple(bucket_values)

    def sample(self, rng: CountingRng) -> BucketingMember:
        return self.member

    def enumerate(self) -> list[BucketingMember]:
        return [self.member]

    @property
    def enumerable_size(self) -> int:
        return 1

    def keys(self, members):
        return np.zeros(1, dtype=np.int64)

    def embedder(self, keys, embed):
        apply = self.member.apply
        return lambda points, x: np.array([embed(apply(p)) for p in points], dtype=np.int64).reshape(-1, 1)


@dataclass(frozen=True)
class BitSamplingMember(BucketingMember):
    index: int

    def apply(self, point: Point) -> int:
        vector = point.fairness_vector
        if self.index >= len(vector):
            raise DimensionMismatchError(f"bit sampling reads coordinate {self.index} of a {len(vector)}-dimensional point")
        value = vector[self.index]
        if value not in (0.0, 1.0):
            raise InvalidParameterError("bit sampling requires 0/1 features")
        return int(value)

    def params(self) -> dict:
        return {"lsh_member": {"kind": "coordinate", "index": self.index}}


class BitSamplingFamily(BucketingFamily):
    """Sample one coordinate of a {0,1}^n vector; paired with normalized
    Hamming distance.  Keys are coordinate indices."""

    def __init__(self, n: int):
        if n < 1:
            raise InvalidParameterError("dimension must be positive")
        self.n = n
        self.bucket_values = (0, 1)

    def sample(self, rng: CountingRng) -> BitSamplingMember:
        return BitSamplingMember(rng.uniform_int(self.n))

    @property
    def enumerable_size(self) -> int:
        return self.n

    def enumerate(self) -> list[BitSamplingMember]:
        return [BitSamplingMember(i) for i in range(self.n)]

    def vectors(self, points):
        """The (points, n) bool matrix of the first n coordinates."""
        x = fairness_matrix(points)
        if x is None or x.shape[1] < self.n or not np.isin(x[:, : self.n], (0.0, 1.0)).all():
            members = self.enumerate()
            x = np.array([[m.apply(p) for m in members] for p in points], dtype=float).reshape(-1, self.n)
        return x[:, : self.n] == 1.0

    def keys(self, members):
        return np.array([m.index for m in members], dtype=np.intp)

    def embedder(self, keys, embed):
        below, above = embed(0), embed(1)
        return lambda points, x: np.where(x[:, keys], above, below)


@dataclass(frozen=True)
class MinHashMember(BucketingMember):
    """A permutation of the universe, stored as rank[element]; a set hashes
    to its minimum-rank element."""

    ranks: tuple[int, ...]

    def apply(self, point: Point) -> int:
        support = binary_support(point.fairness_vector)
        if not support:
            raise InvalidParameterError("min-wise hashing is undefined on the empty set")
        if max(support) >= len(self.ranks):
            raise DimensionMismatchError(f"set element {max(support)} is outside the universe of {len(self.ranks)}")
        return min(support, key=lambda e: self.ranks[e])

    def params(self) -> dict:
        return {"lsh_member": {"kind": "permutation", "ranks": list(self.ranks)}}


class MinHashFamily(BucketingFamily):
    """Min-wise permutation hashing over a universe of feature indices;
    paired with Jaccard distance.  Buckets are the universe elements, and
    keys are rank rows (rank[element])."""

    def __init__(self, universe_size: int):
        if universe_size < 1:
            raise InvalidParameterError("universe must be non-empty")
        self.universe_size = universe_size
        self.bucket_values = tuple(range(universe_size))

    def sample(self, rng: CountingRng) -> MinHashMember:
        return MinHashMember(rng.permutation(self.universe_size))

    @property
    def enumerable_size(self) -> int | None:
        return math.factorial(self.universe_size) if self.universe_size <= MINHASH_ENUM_MAX else None

    def enumerate(self) -> list[MinHashMember]:
        if self.universe_size > MINHASH_ENUM_MAX:
            raise NotEnumerableError(
                f"universe of {self.universe_size} has too many permutations to enumerate"
            )
        return [MinHashMember(p) for p in itertools.permutations(range(self.universe_size))]

    def vectors(self, points):
        """The (points, universe) membership matrix of the points' sets."""
        x, size = fairness_matrix(points), self.universe_size
        if x is not None and x.shape[1] == size and np.isin(x, (0.0, 1.0)).all() and (x == 1.0).any(axis=1).all():
            return x == 1.0
        probe, member = MinHashMember(tuple(range(size))), np.zeros((len(points), size), dtype=bool)
        for r, point in enumerate(points):
            probe.apply(point)  # the first bad point raises
            member[r, list(binary_support(point.fairness_vector))] = True
        return member

    def keys(self, members):
        return np.array([m.ranks for m in members], dtype=np.int64).reshape(-1, self.universe_size)

    def draw(self, rng, trials):
        if self.universe_size <= MINHASH_ENUM_MAX:
            return super().draw(rng, trials)
        draws = rng.uniform_ints(1 << 53, trials * self.universe_size).reshape(trials, -1)
        return np.argsort(draws, axis=1).argsort(axis=1)  # a uniform permutation per trial

    def embedder(self, keys, embed):
        """A running minimum over each set of rank * 2**b + embed(element),
        in the smallest dtype."""
        values = np.array([embed(e) for e in range(self.universe_size)])
        b = int(values.max()).bit_length()
        dtype = np.min_scalar_type((self.universe_size - 1) << b | int(values.max()))
        codes = (keys.T << b | values[:, None]).astype(dtype)  # one row per element

        def embeds(points, member):
            best = np.full((len(member), len(keys)), np.iinfo(dtype).max, dtype=dtype)
            for e, code in enumerate(codes):  # every set is non-empty, so every row is lowered
                rows = member[:, e]
                best[rows] = np.minimum(best[rows], code)
            return best & dtype.type((1 << b) - 1)

        return embeds


@dataclass(frozen=True)
class SimHashMember(BucketingMember):
    normal: tuple[float, ...]

    def apply(self, point: Point) -> int:
        vector = point.fairness_vector
        if len(vector) != len(self.normal):
            raise DimensionMismatchError("dimension mismatch in hyperplane hash")
        dot = sum(a * b for a, b in zip(self.normal, vector))
        return 1 if dot >= 0.0 else 0

    def params(self) -> dict:
        return {"lsh_member": {"kind": "hyperplane", "normal": list(self.normal)}}


class SimHashFamily(BucketingFamily):
    """Random-hyperplane sign hashing; paired with angular distance.
    The family is continuous, so enumeration is unsupported.  Keys are
    normals, which need not be unit length."""

    def __init__(self, dim: int):
        if dim < 1:
            raise InvalidParameterError("dimension must be positive")
        self.dim = dim
        self.bucket_values = (0, 1)

    def sample(self, rng: CountingRng) -> SimHashMember:
        return SimHashMember(rng.unit_vector(self.dim))

    def enumerate(self) -> list[BucketingMember]:
        raise NotEnumerableError("hyperplane families are continuous")

    def vectors(self, points):
        if any(len(p.fairness_vector) != self.dim for p in points):
            raise DimensionMismatchError("dimension mismatch in hyperplane hash")
        return np.array([p.fairness_vector for p in points], dtype=float).reshape(-1, self.dim)

    def keys(self, members):
        return np.array([m.normal for m in members], dtype=float).reshape(-1, self.dim)

    def draw(self, rng, trials):
        return rng.normals((trials, self.dim))  # only the signs of dot products count

    def embedder(self, keys, embed):
        below, above = embed(0), embed(1)
        # one matrix-vector product per point: a block product may round differently and flip a sign
        return lambda points, x: np.where(np.reshape([keys @ v for v in x], (len(x), len(keys))) >= 0.0, above, below)

