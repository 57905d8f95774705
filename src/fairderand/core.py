"""Domain types: datasets and scorers.

A ``Dataset`` is columnar: ids, a float64 feature matrix, a fairness
matrix or None, and labels, checked by its one constructor.  Scores are
exact rationals throughout.  Float inputs are read through their shortest
round-trip decimal form (``0.3`` means 3/10, not the nearest binary
double), so that threshold comparisons against the grid {1/k, ..., k/k}
are exact and boundary ties are reproducible.  A scorer scores a dataset
(``scores``) as integer numerators over one denominator, so every
t = floor(score * k) is one array operation (``threshold_counts``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

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


def threshold_counts(numerators: np.ndarray, den: int, k: int) -> np.ndarray:
    """t = floor(score * k) of every score numerators/den, as int64: the
    number of grid thresholds u/k <= score (a closed comparison), all that a
    threshold classifier reads of a score.  The products n * k are formed in
    Python ints where den * k passes int64."""
    wide = den * k >= 2**63
    return ((numerators.astype(object) if wide else numerators) * k // den).astype(np.int64)


def over_common_denominator(ratios: Sequence[tuple[int, int]]) -> tuple[np.ndarray, int]:
    """The rationals n/d of (n, d) ratios as integer numerators over their
    least common denominator D, and D, so that sums over them are integer
    arithmetic: an int64 array where every numerator fits, else Python ints."""
    den = math.lcm(*{d for _, d in ratios})
    values = [n * (den // d) for n, d in ratios]
    return np.array(values, dtype=np.int64 if max(map(abs, values), default=0) < 2**63 else object), den


def _checked_rows(rows, ids: tuple, what: str) -> np.ndarray:
    """A float64 matrix of one row per id, each row non-empty and finite."""
    try:
        x = np.asarray(rows, dtype=np.float64)
    except ValueError:  # ragged rows, or a text that is no number
        if len({len(row) for row in rows}) > 1:
            raise DimensionMismatchError(f"{what} dimensions are not uniform") from None
        raise
    if x.ndim != 2 or len(x) != len(ids):
        raise DimensionMismatchError(f"{what} must be one row for each of the {len(ids)} ids")
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1)) if x.shape[1] else [0]  # no entry at all: every point
    if len(bad):
        problem = ("non-finite" if x.shape[1] else "no") if what == "feature" else "invalid fairness"
        raise InvalidParameterError(f"point {ids[bad[0]]!r} has {problem} features")
    return x


class Dataset:
    """Ordered points as the columns ``ids``, ``features``, ``fairness`` (or
    None) and ``labels``, checked: at least one point, unique ids, finite
    float64 rows of one width, and labels 0, 1 or None (all None when labels
    is None).  The data distribution is the empirical uniform
    distribution, so expectations are plain averages."""

    def __init__(self, ids: Sequence[str], features, fairness=None, labels: Optional[Sequence] = None):
        self.ids = tuple(ids)
        if not self.ids:
            raise InvalidParameterError("dataset must contain at least one point")
        if len(set(self.ids)) != len(self.ids):
            raise InvalidParameterError("dataset ids must be unique")
        self.features = _checked_rows(features, self.ids, "feature")
        self.fairness = None if fairness is None else _checked_rows(fairness, self.ids, "fairness feature")
        self.labels = (None,) * len(self.ids) if labels is None else tuple(labels)
        if len(self.labels) != len(self.ids):
            raise DimensionMismatchError(f"labels must be one for each of the {len(self.ids)} ids")
        for point, label in zip(self.ids, self.labels):
            if label is not None and label not in (0, 1):
                raise InvalidParameterError(f"label of {point!r} must be 0 or 1")

    @property
    def fairness_vectors(self) -> np.ndarray:
        """The rows the fairness metric and LSH read: ``fairness``, else ``features``."""
        return self.features if self.fairness is None else self.fairness

    def __len__(self) -> int:
        return len(self.ids)


class StochasticScorer:
    """A total map from points to scores in [0, 1], read as Pr[predict 1]."""

    def scores(self, data: Dataset) -> tuple[np.ndarray, int]:
        """Every point's score, in dataset order, over one common denominator."""
        raise NotImplementedError


class TabularScorer(StochasticScorer):
    """Scores per point id, as numerators over one denominator: a mapping's,
    or the checked ``columns`` (numerators, den) of the ids ``table``; total
    on any dataset it is audited against (a missing id is an error)."""

    def __init__(self, table: Mapping[str, ScoreLike], columns: Optional[tuple[np.ndarray, int]] = None):
        self.ids = tuple(map(str, table))
        ratios = () if columns else [as_score(v).as_integer_ratio() for v in table.values()]
        self.numerators, self.den = columns or over_common_denominator(ratios)
        self._rows: Optional[dict[str, int]] = None  # id -> row, made on the first lookup

    def scores(self, data: Dataset) -> tuple[np.ndarray, int]:
        if data.ids == self.ids:  # a dataset and its own score column
            return self.numerators, self.den
        self._rows = self._rows or {p: r for r, p in enumerate(self.ids)}
        missing = next((p for p in data.ids if p not in self._rows), None)
        if missing is not None:
            why = "a tabular scorer, such as a dataset's score column, scores only the ids in its table"
            raise UnknownPointError(f"no score for point {missing!r}: {why}")
        return self.numerators[[self._rows[p] for p in data.ids]], self.den


class AffineScorer(StochasticScorer):
    """score = clamp(w . features + b, 0, 1), each sum rounded once (``math.fsum``)."""

    def __init__(self, weights: Sequence[float], bias: float = 0.0):
        self.weights = tuple(float(w) for w in weights)
        self.bias = float(bias)

    def scores(self, data: Dataset) -> tuple[np.ndarray, int]:
        if data.features.shape[1] != len(self.weights):
            raise DimensionMismatchError(
                f"scorer expects {len(self.weights)} features, got {data.features.shape[1]}"
            )
        terms = np.column_stack([data.features * self.weights, np.full(len(data), self.bias)]).tolist()
        raws = map(math.fsum, terms)
        return over_common_denominator([as_score(min(1.0, max(0.0, raw))).as_integer_ratio() for raw in raws])


class ConstantScorer(StochasticScorer):
    def __init__(self, value: ScoreLike):
        self.value = as_score(value)

    def scores(self, data: Dataset) -> tuple[np.ndarray, int]:
        return over_common_denominator([self.value.as_integer_ratio()] * len(data))
