"""Domain types: points, datasets, scorers, deterministic classifiers.

Scores are exact rationals throughout.  Float inputs are read through
their shortest round-trip decimal form (``0.3`` means 3/10, not the
nearest binary double), so that threshold comparisons against the grid
{1/k, ..., k/k} are exact and boundary ties are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    UnknownPointError,
)
from .rng import CountingRng

ScoreLike = Union[Fraction, float, int, str]


def as_score(value: ScoreLike) -> Fraction:
    """Convert a score-like value to an exact rational in [0, 1]."""
    if isinstance(value, Fraction):
        score = value
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise InvalidParameterError(f"score {value!r} is not finite")
        score = Fraction(str(value))
    elif isinstance(value, (int, str)):
        score = Fraction(value)
    else:
        raise InvalidParameterError(f"cannot interpret {value!r} as a score")
    if not 0 <= score <= 1:
        raise InvalidParameterError(f"score {value!r} outside [0, 1]")
    return score


def threshold_count(score: Fraction, k: int) -> int:
    """Number of grid thresholds u in {1..k} with score >= u/k.

    Equals floor(score * k), computed exactly, so u/k == score counts as a
    hit (closed comparison).  This single integer determines every
    prediction a grid-threshold classifier makes at the point.
    """
    return (score.numerator * k) // score.denominator


@dataclass(frozen=True)
class Point:
    """A classified individual: id, inference features, optional fairness
    features and label."""

    id: str
    features: tuple[float, ...]
    fairness_features: Optional[tuple[float, ...]] = None
    label: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(float(v) for v in self.features))
        if not self.features:
            raise InvalidParameterError(f"point {self.id!r} has no features")
        if not all(math.isfinite(v) for v in self.features):
            raise InvalidParameterError(f"point {self.id!r} has non-finite features")
        if self.fairness_features is not None:
            ff = tuple(float(v) for v in self.fairness_features)
            if not ff or not all(math.isfinite(v) for v in ff):
                raise InvalidParameterError(
                    f"point {self.id!r} has invalid fairness features"
                )
            object.__setattr__(self, "fairness_features", ff)
        if self.label is not None and self.label not in (0, 1):
            raise InvalidParameterError(f"label of {self.id!r} must be 0 or 1")

    @property
    def fairness_vector(self) -> tuple[float, ...]:
        """Features the fairness metric (and LSH) sees: the dedicated
        fairness features when present, the inference features otherwise."""
        return self.fairness_features if self.fairness_features is not None else self.features


class Dataset:
    """Ordered collection of points with unique ids and uniform dimensions.

    The data distribution is always the empirical uniform distribution over
    the dataset, so distributional expectations become plain averages.
    """

    def __init__(self, points: Iterable[Point]):
        self.points: tuple[Point, ...] = tuple(points)
        if not self.points:
            raise InvalidParameterError("dataset must contain at least one point")
        ids = [p.id for p in self.points]
        if len(set(ids)) != len(ids):
            raise InvalidParameterError("dataset ids must be unique")
        dim = len(self.points[0].features)
        if any(len(p.features) != dim for p in self.points):
            raise DimensionMismatchError("feature dimensions are not uniform")
        fdims = {len(p.fairness_features) for p in self.points if p.fairness_features is not None}
        if len(fdims) > 1:
            raise DimensionMismatchError("fairness feature dimensions are not uniform")
        self.dimension = dim
        self.by_id: dict[str, Point] = {p.id: p for p in self.points}

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __getitem__(self, index: int) -> Point:
        return self.points[index]

    def get(self, point_id: str) -> Point:
        try:
            return self.by_id[point_id]
        except KeyError:
            raise UnknownPointError(point_id) from None


class StochasticScorer:
    """A total map from points to scores in [0, 1], read as Pr[predict 1]."""

    def score(self, point: Point) -> Fraction:
        raise NotImplementedError

    def realize(self, point: Point, rng: CountingRng) -> int:
        """Draw the Bernoulli(score) prediction bit, at a fixed 32-bit cost."""
        return rng.bernoulli(self.score(point))


class TabularScorer(StochasticScorer):
    """Scores stored per point id; total on any dataset it is audited
    against (looking up a missing id is an error)."""

    def __init__(self, table: Mapping[str, ScoreLike]):
        self.table: dict[str, Fraction] = {str(k): as_score(v) for k, v in table.items()}

    def score(self, point: Point) -> Fraction:
        try:
            return self.table[point.id]
        except KeyError:
            raise UnknownPointError(point.id) from None


class AffineScorer(StochasticScorer):
    """score = clamp(w . features + b, 0, 1)."""

    def __init__(self, weights: Sequence[float], bias: float = 0.0):
        self.weights = tuple(float(w) for w in weights)
        self.bias = float(bias)

    def score(self, point: Point) -> Fraction:
        if len(point.features) != len(self.weights):
            raise DimensionMismatchError(
                f"scorer expects {len(self.weights)} features, got {len(point.features)}"
            )
        raw = sum(w * v for w, v in zip(self.weights, point.features)) + self.bias
        return as_score(min(1.0, max(0.0, raw)))


class ConstantScorer(StochasticScorer):
    def __init__(self, value: ScoreLike):
        self.value = as_score(value)

    def score(self, point: Point) -> Fraction:
        return self.value


class DeterministicClassifier:
    """A {0,1}-valued classifier; evaluation is deterministic and repeatable."""

    def predict(self, point: Point) -> int:
        raise NotImplementedError

