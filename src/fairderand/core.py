"""Domain types: datasets, points and scorers.

A ``Dataset`` is columnar: ids, a float64 feature matrix, a fairness
matrix or None, and labels.  A ``Point`` is one row, built on demand where
an API takes single points.  Scores are exact rationals throughout.  Float
inputs are read through their shortest round-trip decimal form (``0.3``
means 3/10, not the nearest binary double), so that threshold comparisons
against the grid {1/k, ..., k/k} are exact and boundary ties are
reproducible.  A scorer scores a whole dataset (``scores``) as integer
numerators over one common denominator, so every t = floor(score * k) is
one array operation (``threshold_counts``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    UnknownPointError,
)

ScoreLike = Union[Fraction, float, int, str]


def as_score(value: ScoreLike) -> Fraction:
    """Convert a score-like value to an exact rational in [0, 1]."""
    try:  # a float through its shortest decimal form
        score = Fraction(str(value) if isinstance(value, float) else value)
    except (TypeError, ValueError, ZeroDivisionError):  # not a number, nan or inf, or "1/0"
        raise InvalidParameterError(f"cannot interpret {value!r} as a score") from None
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


def threshold_counts(numerators: np.ndarray, den: int, k: int) -> np.ndarray:
    """``threshold_count`` of every score numerators/den, as int64 (each
    t <= k); the products n * k are formed in Python ints where den * k
    passes int64."""
    wide = den * k >= 2**63
    return ((numerators.astype(object) if wide else numerators) * k // den).astype(np.int64)


def over_common_denominator(ratios: Sequence[tuple[int, int]]) -> tuple[np.ndarray, int]:
    """The rationals n/d of (n, d) ratios as integer numerators over their
    least common denominator D, and D, so that sums over them are integer
    arithmetic: an int64 array where every numerator fits, else Python ints."""
    den = math.lcm(*{d for _, d in ratios})
    values = [n * (den // d) for n, d in ratios]
    return np.array(values, dtype=np.int64 if max(map(abs, values), default=0) < 2**63 else object), den


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
    """Ordered points with unique ids and uniform dimensions, as the columns
    ``ids``, ``features``, ``fairness`` (or None) and ``labels``; an index
    gives a ``Point``, a slice a dataset.  The data distribution is the
    empirical uniform distribution, so expectations are plain averages.
    """

    def __init__(self, points: Iterable[Point] = (), columns: Optional[tuple] = None):
        """From points, or from checked ``columns`` (ids, features, fairness,
        labels): unique ids, finite float64 rows, and labels 0, 1 or None
        (all None when labels is None)."""
        if columns is None:
            points = tuple(points)
            if not points:
                raise InvalidParameterError("dataset must contain at least one point")
            ids = [p.id for p in points]
            if len(set(ids)) != len(ids):
                raise InvalidParameterError("dataset ids must be unique")
            if len({len(p.features) for p in points}) > 1:
                raise DimensionMismatchError("feature dimensions are not uniform")
            fairness = [p.fairness_features for p in points]
            if len({None if f is None else len(f) for f in fairness}) > 1:  # all or none, of one length
                raise DimensionMismatchError("fairness feature dimensions are not uniform")
            columns = (ids, np.array([p.features for p in points]),
                       None if fairness[0] is None else np.array(fairness), [p.label for p in points])
        ids, self.features, self.fairness, labels = columns
        self.ids = tuple(ids)
        self.labels = (None,) * len(self.ids) if labels is None else tuple(labels)

    @property
    def fairness_vectors(self) -> np.ndarray:
        """The rows the fairness metric and LSH read: ``fairness``, else ``features``."""
        return self.features if self.fairness is None else self.fairness

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Point]:
        return map(self.__getitem__, range(len(self.ids)))

    def __getitem__(self, index):
        if isinstance(index, slice):
            fairness = None if self.fairness is None else self.fairness[index]
            return Dataset(columns=(self.ids[index], self.features[index], fairness, self.labels[index]))
        fairness = None if self.fairness is None else tuple(self.fairness[index].tolist())
        return Point(self.ids[index], tuple(self.features[index].tolist()), fairness, self.labels[index])

    def get(self, point_id: str) -> Point:
        try:
            return self[self.ids.index(point_id)]
        except ValueError:
            raise UnknownPointError(f"no point {point_id!r} in the dataset") from None


class StochasticScorer:
    """A total map from points to scores in [0, 1], read as Pr[predict 1]."""

    def score(self, point: Point) -> Fraction:
        raise NotImplementedError

    def scores(self, data: Dataset) -> tuple[np.ndarray, int]:
        """Every point's score, in dataset order, over one common denominator."""
        return over_common_denominator([self.score(p).as_integer_ratio() for p in data])


class TabularScorer(StochasticScorer):
    """Scores per point id, as numerators over one denominator: a mapping's,
    or the checked ``columns`` (numerators, den) of the ids ``table``; total
    on any dataset it is audited against (a missing id is an error)."""

    def __init__(self, table: Mapping[str, ScoreLike], columns: Optional[tuple[np.ndarray, int]] = None):
        self.ids = tuple(map(str, table))
        ratios = () if columns else [as_score(v).as_integer_ratio() for v in table.values()]
        self.numerators, self.den = columns or over_common_denominator(ratios)
        self._rows: Optional[dict[str, int]] = None  # id -> row, made on the first lookup

    def _row(self, point_id: str) -> int:
        self._rows = self._rows or {p: r for r, p in enumerate(self.ids)}
        try:
            return self._rows[point_id]
        except KeyError:
            why = "a tabular scorer, such as a dataset's score column, scores only the ids in its table"
            raise UnknownPointError(f"no score for point {point_id!r}: {why}") from None

    def score(self, point: Point) -> Fraction:
        return Fraction(int(self.numerators[self._row(point.id)]), self.den)

    def scores(self, data: Dataset) -> tuple[np.ndarray, int]:
        if data.ids == self.ids:  # a dataset and its own score column
            return self.numerators, self.den
        return self.numerators[[self._row(p) for p in data.ids]], self.den


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
        raw = math.fsum([*(w * v for w, v in zip(self.weights, point.features)), self.bias])  # one rounding
        return as_score(min(1.0, max(0.0, raw)))


class ConstantScorer(StochasticScorer):
    def __init__(self, value: ScoreLike):
        self.value = as_score(value)

    def score(self, point: Point) -> Fraction:
        return self.value
