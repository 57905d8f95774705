"""The derandomized classifier family, and the three schemes as bucketings.

A derandomized classifier predicts 1 at x iff u(x) <= floor(score(x) * k),
which realizes the closed comparison score >= u/k exactly, with

    u(x) = ((a * e(x) + c) mod k) + 1.

Here e(x) is the embedded bucket of x under a member drawn from a
bucketing family, and (a, c) is drawn from the affine pairwise-independent
family over that family's buckets.  The paper's three schemes are this one
construction with three bucketing families:

* random threshold (RT): every point in one bucket, so u = c + 1 is one
  shared threshold on the grid {1/k, ..., k/k};
* hashed threshold (Pi): a fixed bucketing of the input, over the buckets
  realized on the working dataset;
* locality-sensitive threshold (LS): a sampled locality-sensitive hash, so
  close points usually share a threshold.

Classifiers are drawn only by ``Derandomizer.draw``, as arrays through a
CountingRng: the keys of every bucketing member (one array draw of the
bucketing family), then every a, then every c, with the bits of each step
counted.  A drawn classifier is its (key, a, c); ``measure`` evaluates it
over a dataset's arrays.  The family is finite exactly when its bucketing
family lists its members (``all_keys``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

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
        return [tuple(map(math.floor, row)) for row in (data.features / self.resolution).tolist()]


class IdentityBucketer(Bucketer):
    """Each point id is its own bucket (finite, id-keyed domains)."""

    def buckets(self, data: Dataset) -> list:
        return list(data.ids)


class SharedBucketer(Bucketer):
    """Every point in the same bucket."""

    def buckets(self, data: Dataset) -> list:
        return [0] * len(data)


def realized_buckets(bucketer: Bucketer, dataset: Dataset) -> tuple[Hashable, ...]:
    """Bucket keys realized on the dataset, in first-seen order."""
    return tuple(dict.fromkeys(bucketer.buckets(dataset)))


class Derandomizer:
    """The uniform family of threshold classifiers over a bucketing family:
    every bucketing member paired with every affine hash over its buckets."""

    def __init__(self, scorer: StochasticScorer, bucketing: BucketingFamily, k: int):
        self.scorer = scorer
        self.bucketing = bucketing
        self.pi_family = PiFamily(k, bucketing.bucket_values)
        self.k = k

    def draw(self, rng: CountingRng, trials: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, BitBudget]:
        """(keys, a, c) of ``trials`` uniform classifiers, and the bits they
        consumed: the keys of every bucketing member first (``lsh_bits``),
        then every a, then every c (``pi_bits``)."""
        start = rng.bits_consumed
        keys = self.bucketing.draw(rng, trials)
        lsh_bits = rng.bits_consumed - start
        a, c = self.pi_family.draw(rng, trials)
        return keys, a, c, BitBudget(rng.bits_consumed - start - lsh_bits, lsh_bits)

    @property
    def family_size(self) -> int:
        """Number of members; raises NotEnumerableError where the bucketing
        family has no finite list."""
        return len(self.bucketing.all_keys()) * self.pi_family.size


class RtDerandomizer(Derandomizer):
    """Shared random threshold on the fixed-precision grid {1/k, ..., k/k}.

    The grid makes the family finite (k members) and sampleable with
    O(log k) bits, at the cost of an additive 1/k in the guarantees.
    """

    def __init__(self, scorer: StochasticScorer, k: int):
        super().__init__(scorer, FixedFamily(SharedBucketer(), (0,)), k)


class PiDerandomizer(Derandomizer):
    """Per-point pseudo-random threshold via a pairwise-independent hash of
    a fixed bucketing."""

    @classmethod
    def build(
        cls,
        scorer: StochasticScorer,
        dataset: Dataset,
        bucketer: Bucketer,
        k: int,
    ) -> "PiDerandomizer":
        """Fix the bucket set to those realized on the working dataset."""
        return cls(scorer, FixedFamily(bucketer, realized_buckets(bucketer, dataset)), k)


class LsDerandomizer(Derandomizer):
    """Locality-sensitive bucketing composed with a pairwise-independent
    threshold hash: ``LsDerandomizer(scorer, lsh_family, k)``.

    When points carry dedicated fairness features, the locality-sensitive
    hash (and the fairness metric) reads those, while the scorer keeps
    reading inference features; the fairness guarantees are then stated
    against the fairness-feature metric.
    """
