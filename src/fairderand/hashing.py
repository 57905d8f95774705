"""Hash families with exactly known distributional properties.

Every classifier in this package thresholds a point x at

    u(x) = ((a * e(x) + c) mod k) + 1,

where e(x) is the integer bucket of x under a bucketing, and (a, c) is a
member of the affine family over that bucketing's buckets.  Two kinds
of family live here:

* the affine pairwise-independent family over Z_k: for any two distinct
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

A bucketing family draws members only as keys (coordinate indices, rank
rows, unit normals), by one array ``draw`` of ``trials`` members through a
CountingRng, or all of them by ``all_keys()``, which raises
``NotEnumerableError`` for a family with no finite list (hyperplanes, or
more than ``MINHASH_ENUM_MAX`` elements to permute); ``params(key)`` is
the report entry of the member a key stands for.  Its buckets are the
integers 0..``n_buckets``-1, which the affine family takes as they are.
It evaluates members on arrays only: ``vectors(data)`` reads and checks a
dataset once (the first point that the family cannot bucket raises),
``embed(keys, x)`` maps a block x of those rows to the (points, members)
matrix of each point's bucket under each member, and ``collisions(xa, xb)``
counts the ``all_keys`` members that put rows xa, xb in one bucket, listing
none: u! |A n B| / |A u B| for MinHash over u elements, else the equal
entries.  A fixed bucketing's rows are its one column of buckets, numbered
in the first-seen order of the buckets it was built on.  A fixed
``locality_sensitive`` class attribute marks the three LSH families, whose
schemes carry the paper's LS bounds.  The affine family draws (a, c) the
same way, every a and then every c, and ``residues`` is its one array
spelling of the hash values; exact audits average (a, c) in closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Hashable, Iterable

import numpy as np

from .core import Dataset
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NotBinaryError,
    NotEnumerableError,
    UnknownBucketError,
)
from .rng import CountingRng

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


class PiFamily:
    """Affine pairwise-independent hash family from the buckets 0..n-1 into [k].

    Exact pairwise independence over the buckets requires every pairwise
    difference of them to be a unit mod k, so the condition is
    gcd(j, k) = 1 for j = 1..n-1; any prime k >= n qualifies, and so does
    any k when there are at most two buckets.

    Over a single bucket a * 0 = 0, so a is fixed at 0 and not drawn: the
    family is the k shared thresholds u = c + 1, drawn with ceil(log2 k)
    bits.
    """

    def __init__(self, k: int, n_buckets: int):
        if k < 1:
            raise InvalidParameterError("k must be positive")
        if n_buckets < 1:
            raise InvalidParameterError("bucket set must be non-empty")
        if k < n_buckets:
            raise InvalidParameterError(f"k={k} smaller than bucket count {n_buckets}")
        for j in range(1, n_buckets):
            if math.gcd(j, k) != 1:
                raise InvalidParameterError(
                    f"bucket difference {j} is not a unit mod {k}; "
                    f"pairwise independence would fail (use a prime k >= {n_buckets})"
                )
        self.k = k
        self.a_range = k if n_buckets > 1 else 1

    def draw(self, rng: CountingRng, trials: int) -> tuple[np.ndarray, np.ndarray]:
        """(a, c) of ``trials`` uniform members: every a, then every c, by
        rejection, which keeps uniformity exact; in the smallest dtype that
        holds a * e + c < k * k."""
        a = rng.uniform_ints(self.a_range, trials).astype(np.min_scalar_type(self.k**2))
        return a, rng.uniform_ints(self.k, trials).astype(a.dtype)

    def residues(self, a: np.ndarray, c: np.ndarray, e: np.ndarray) -> np.ndarray:
        """(a * e + c) mod k, the hash values minus one, broadcast over the
        coefficient and bucket arrays (e < k)."""
        return (a * e.astype(a.dtype) + c) % self.k

    @property
    def size(self) -> int:
        return self.a_range * self.k

    def params(self, a: int, c: int) -> dict:
        """The member e -> ((a * e + c) mod k) + 1 as an entry of a
        derandomize report; over one bucket it is the shared threshold u."""
        if self.a_range == 1:
            return {"u": int(c) + 1, "k": self.k}
        return {"a": int(a), "c": int(c), "k": self.k}


class BucketingFamily:
    """A uniform family of bucketings into the integers 0..``n_buckets``-1,
    evaluated as the module docstring says."""

    n_buckets: int
    locality_sensitive = False

    def all_keys(self) -> np.ndarray:
        """The key of every member, one row each; raises NotEnumerableError
        where the family has no finite list."""
        raise NotImplementedError

    def vectors(self, data: Dataset) -> np.ndarray:
        """The rows of the dataset that ``embed`` reads, checked."""
        raise NotImplementedError

    def draw(self, rng: CountingRng, trials: int) -> np.ndarray:
        """The keys of ``trials`` uniform members; here, by index into ``all_keys``."""
        keys = self.all_keys()
        return keys[rng.uniform_ints(len(keys), trials)]

    def params(self, key) -> dict:
        """The entry in a derandomize report of the member that a key (one
        row of ``all_keys`` or ``draw``) stands for."""
        return {}

    def embed(self, keys: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The (points, members) buckets of a block x of ``vectors`` under
        the members of the keys."""
        raise NotImplementedError

    def collisions(self, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
        """The ``all_keys`` members that put each pair of rows xa, xb of ``vectors`` in
        one bucket, as int64: the equal entries, exact where ``embed(all_keys(), x)`` is x."""
        return np.einsum("...j->...", xa == xb, dtype=np.int64)  # a row sum, faster than sum()


class FixedFamily(BucketingFamily):
    """A deterministic bucketing as a one-member family: it draws no bits,
    not even in ``draw``, and its ``vectors`` are the one column of buckets
    that all members share, which ``embed`` returns as it is.
    The bucketer lists each point's bucket by ``buckets(data)``; the family
    numbers the distinct ``buckets`` it is built on in first-seen order, and
    has no number for any other."""

    def __init__(self, bucketer, buckets: Iterable[Hashable]):
        self.bucketer = bucketer
        self.index = {b: i for i, b in enumerate(dict.fromkeys(buckets))}
        self.n_buckets = len(self.index)

    def all_keys(self):
        return np.zeros(1, dtype=np.int64)

    def vectors(self, data):
        try:
            return np.array([self.index[b] for b in self.bucketer.buckets(data)], dtype=np.int64).reshape(-1, 1)
        except KeyError as exc:
            why = "the family embeds only the buckets it was built on (for Pi, those of the input dataset's points)"
            raise UnknownBucketError(f"no hash value for bucket {exc.args[0]!r}: {why}") from None

    def embed(self, keys, x):
        return x


class BitSamplingFamily(BucketingFamily):
    """Sample one coordinate of a {0,1}^n vector; paired with normalized
    Hamming distance.  Keys are coordinate indices."""

    n_buckets = 2
    locality_sensitive = True

    def __init__(self, n: int):
        if n < 1:
            raise InvalidParameterError("dimension must be positive")
        self.n = n

    def all_keys(self):
        return np.arange(self.n)

    def vectors(self, data):
        """The (points, n) bool matrix of the first n coordinates.  The first
        point raises where it has fewer than n; a point that is not 0/1 on
        them raises, the first point first."""
        x = data.fairness_vectors
        binary = np.isin(x[:, : self.n], (0.0, 1.0))
        if x.shape[1] < self.n and binary[:1].all():
            raise DimensionMismatchError(f"bit sampling reads coordinate {x.shape[1]} of a {x.shape[1]}-dimensional point")
        if not binary.all():
            raise NotBinaryError("bit sampling requires 0/1 features")
        return x[:, : self.n] == 1.0

    def params(self, key):
        return {"lsh_member": {"kind": "coordinate", "index": int(key)}}

    def embed(self, keys, x):
        return x[:, keys].view(np.uint8)


class MinHashFamily(BucketingFamily):
    """Min-wise permutation hashing over a universe of feature indices;
    paired with Jaccard distance.  Buckets are the universe elements, and
    keys are rank rows (rank[element]): a member hashes a set to its
    minimum-rank element."""

    locality_sensitive = True

    def __init__(self, universe_size: int):
        if universe_size < 1:
            raise InvalidParameterError("universe must be non-empty")
        self.universe_size = self.n_buckets = universe_size

    def all_keys(self):
        """The rank rows of every permutation, in lexicographic order."""
        if self.universe_size > MINHASH_ENUM_MAX:
            raise NotEnumerableError(
                f"universe of {self.universe_size} has too many permutations to enumerate"
            )
        return np.array(list(itertools.permutations(range(self.universe_size))), dtype=np.int64)

    def vectors(self, data):
        """The (points, universe) membership matrix of the points' sets.  The
        first point that is not a non-empty 0/1 set of the universe raises."""
        x, size = data.fairness_vectors, self.universe_size
        member = x == 1.0
        not_binary, empty = ~(member | (x == 0.0)).all(axis=1), ~member.any(axis=1)
        bad = np.flatnonzero(not_binary | empty | member[:, size:].any(axis=1))
        if bad.size:
            r = bad[0]
            if not_binary[r]:
                raise NotBinaryError("set-valued features must be 0/1")
            if empty[r]:
                raise NotBinaryError("min-wise hashing is undefined on the empty set")
            raise DimensionMismatchError(f"set element {np.flatnonzero(member[r])[-1]} is outside the universe of {size}")
        return np.pad(member[:, :size], ((0, 0), (0, max(0, size - x.shape[1]))))

    def draw(self, rng, trials):
        """One Fisher-Yates pass over every trial at once: for i = n-1 down
        to 1, swap rank i of each trial with its rank j, j uniform in [0, i].
        The ranks are stored element-major, so rank i of every trial is one
        contiguous run; the rows returned are a transposed view."""
        n, trial = self.universe_size, np.arange(trials)
        ranks = np.repeat(np.arange(n, dtype=np.int64), trials)  # rank e of trial r at e * trials + r
        for i in range(n - 1, 0, -1):
            at = rng.uniform_ints(i + 1, trials) * trials + trial
            run = slice(i * trials, (i + 1) * trials)
            ranks[run], ranks[at] = ranks[at], ranks[run].copy()
        return ranks.reshape(n, trials).T

    def params(self, key):
        return {"lsh_member": {"kind": "permutation", "ranks": key.tolist()}}

    def embed(self, keys, member):
        """A running minimum over each set of rank * 2**b + element, in the
        smallest dtype."""
        top = self.universe_size - 1
        b = top.bit_length()
        dtype = np.min_scalar_type(top << b | top)
        codes = (keys.T << b | np.arange(self.universe_size)[:, None]).astype(dtype)  # one row per element
        best = np.full((len(member), len(keys)), np.iinfo(dtype).max, dtype=dtype)
        for e, code in enumerate(codes):  # every set is non-empty, so every row is lowered
            rows = member[:, e]
            best[rows] = np.minimum(best[rows], code)
        return best & dtype.type((1 << b) - 1)

    def collisions(self, xa, xb):
        """u! |A n B| // |A u B|: a uniform permutation's minimum over A u B is uniform
        on it, and collides iff it lies in A n B (Broder 1997); |A u B| <= u divides u!."""
        meet, join = (np.einsum("...j->...", v, dtype=np.int64) for v in (xa & xb, xa | xb))
        return math.factorial(self.universe_size) * meet // join


class SimHashFamily(BucketingFamily):
    """Random-hyperplane sign hashing; paired with angular distance.
    The family is continuous, so enumeration is unsupported.  Keys are
    unit normals."""

    n_buckets = 2
    locality_sensitive = True

    def __init__(self, dim: int):
        if dim < 1:
            raise InvalidParameterError("dimension must be positive")
        self.dim = dim

    def all_keys(self):
        raise NotEnumerableError("hyperplane families are continuous")

    def vectors(self, data):
        if data.fairness_vectors.shape[1] != self.dim:
            raise DimensionMismatchError("dimension mismatch in hyperplane hash")
        return data.fairness_vectors

    def draw(self, rng, trials):
        """Standard normal rows, scaled to unit length."""
        normals = rng.normals((trials, self.dim))
        return normals / np.linalg.norm(normals, axis=1, keepdims=True)

    def params(self, key):
        return {"lsh_member": {"kind": "hyperplane", "normal": key.tolist()}}

    def embed(self, keys, x):
        # one matrix-vector product per point: a block product may round differently and flip a sign
        return (np.reshape([keys @ v for v in x], (len(x), len(keys))) >= 0.0).view(np.uint8)

