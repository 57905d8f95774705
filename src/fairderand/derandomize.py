"""The derandomized classifier family, and the three schemes as bucketings.

A derandomized classifier predicts 1 at x iff u(x) <= floor(score(x) * k),
which realizes the closed comparison score >= u/k exactly, with

    u(x) = ((a * e(x) + c) mod k) + 1.

Here e(x) is the integer bucket of x under a member drawn from a bucketing
family, and (a, c) is drawn from the affine pairwise-independent family
over that family's ``n_buckets`` buckets.  The paper's three schemes are
this one construction with three bucketing families, so a scheme is only
a way to build the one ``Derandomizer`` class:

* random threshold (RT), ``Derandomizer.rt``: every point in one bucket,
  so u = c + 1 is one shared threshold on the grid {1/k, ..., k/k};
* hashed threshold (Pi), ``Derandomizer.pi``: a fixed bucketing of the
  input, over the buckets realized on the working dataset;
* locality-sensitive threshold (LS), ``Derandomizer(scorer, lsh_family,
  k)``: a sampled locality-sensitive hash, so close points usually share
  a threshold.  The hash (and the fairness metric) reads a point's
  dedicated fairness features where it has them, while the scorer reads
  its inference features.

The audit reads which of the paper's bounds apply off the bucketing
family: one bucket (``n_buckets == 1``) is the shared-threshold family of
RT, whatever built it, and a ``locality_sensitive`` family carries LS's.

Classifiers are drawn only by ``Derandomizer.draw``, as arrays through a
CountingRng: the keys of every bucketing member (one array draw of the
bucketing family), then every a, then every c, with the bits of each step
counted.  A drawn classifier is its (key, a, c), and ``Derandomizer.predict``
is the one place that evaluates drawn classifiers, over a block of a
dataset's arrays.  The family is finite exactly when its bucketing
family lists its members (``all_keys``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, StochasticScorer
from .errors import InvalidParameterError
from .hashing import BitBudget, BucketingFamily, FixedFamily, PiFamily
from .rng import CountingRng


class Bucketer:
    """Deterministic discretization of the input space, over the columns of
    a whole dataset (``buckets``); equal points map to equal buckets."""

    def buckets(self, data: Dataset) -> list:
        raise NotImplementedError


@dataclass(frozen=True)
class GridBucketer(Bucketer):
    """Quantize inference features to a grid of the given resolution.

    The resolution controls the largest bucket mass, which is the leading
    term of the hashed-threshold scheme's variance bound.
    """

    resolution: float

    def __post_init__(self):
        if self.resolution <= 0:
            raise InvalidParameterError("resolution must be positive")

    def buckets(self, data: Dataset) -> list:
        if float(np.abs(data.features).max()) / self.resolution == math.inf:  # the largest cell index, in a float
            raise InvalidParameterError(f"bucketer.resolution {self.resolution!r} puts a grid cell beyond the float range")
        return [tuple(map(math.floor, row)) for row in (data.features / self.resolution).tolist()]


class IdentityBucketer(Bucketer):
    """Each point id is its own bucket (finite, id-keyed domains)."""

    def buckets(self, data: Dataset) -> list:
        return list(data.ids)


class SharedBucketer(Bucketer):
    """Every point in the same bucket."""

    def buckets(self, data: Dataset) -> list:
        return [0] * len(data)


class Derandomizer:
    """The uniform family of threshold classifiers over a bucketing family:
    every bucketing member paired with every affine hash over its buckets.
    ``Derandomizer(scorer, lsh_family, k)`` is the LS scheme."""

    def __init__(self, scorer: StochasticScorer, bucketing: BucketingFamily, k: int):
        self.scorer = scorer
        self.bucketing = bucketing
        self.pi_family = PiFamily(k, bucketing.n_buckets)
        self.k = k

    @classmethod
    def rt(cls, scorer: StochasticScorer, k: int) -> "Derandomizer":
        """The k shared thresholds u/k: O(log k) bits, at an additive 1/k in the guarantees."""
        return cls(scorer, FixedFamily(SharedBucketer(), (0,)), k)

    @classmethod
    def pi(cls, scorer: StochasticScorer, dataset: Dataset, bucketer: Bucketer, k: int) -> "Derandomizer":
        """The hashed threshold over the buckets that the bucketer realizes on the dataset."""
        return cls(scorer, FixedFamily(bucketer, bucketer.buckets(dataset)), k)

    def draw(self, rng: CountingRng, trials: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, BitBudget]:
        """(keys, a, c) of ``trials`` uniform classifiers, and the bits they
        consumed: the keys of every bucketing member first (``lsh_bits``),
        then every a, then every c (``pi_bits``)."""
        start = rng.bits_consumed
        keys = self.bucketing.draw(rng, trials)
        lsh_bits = rng.bits_consumed - start
        a, c = self.pi_family.draw(rng, trials)
        return keys, a, c, BitBudget(rng.bits_consumed - start - lsh_bits, lsh_bits)

    def predict(self, keys: np.ndarray, a: np.ndarray, c: np.ndarray, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The (points, classifiers) bool matrix of u = residue + 1 <= t of
        the drawn classifiers (keys, a, c) at a block of points, with t their
        floor(score * k) and x their rows of ``bucketing.vectors``."""
        residues = self.pi_family.residues(a, c, self.bucketing.embed(keys, x))
        return residues < t[:, None].astype(residues.dtype)  # t <= k < k * k

    @property
    def family_size(self) -> int:
        """Number of members; raises NotEnumerableError where the bucketing
        family has no finite list."""
        return len(self.bucketing.all_keys()) * self.pi_family.size
