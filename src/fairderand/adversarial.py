"""Constructive witnesses for the negative results.

Two procedures live here:

* a dataset of near-coincident points with near-half scores on which the
  hashed-threshold derandomization is unfair on *every* pair, even though
  the scorer is perfectly fair;

* a grid-scan certificate that any finite family with a nontrivial member
  violates (alpha, beta)-fairness for beta below 1/|family|, over a grid
  given as a ``Dataset`` of one row per step, witnessed by two rows.

Both read the audit's own evaluation path: one exact ``prediction_table``
for the family's gaps, and the pair pass ``pair_classes`` for distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import Dataset, TabularScorer
from .derandomize import Derandomizer, IdentityBucketer
from .errors import GridTooCoarseError, InvalidParameterError
from .measure import EstimatorConfig, Number, _excesses, pair_classes, prediction_table, quantity, scorer_beta
from .metrics import Metric, PairSet, ScaledEuclidean


@dataclass(frozen=True)
class SphereConstruction:
    """Parameters of the adversarial dataset.

    The points sit on the sphere of radius ``delta_sphere`` about the origin;
    the score gap and minimum pairwise distance are both ``eps_gap``.  The
    parameter constraints make every pair's expected prediction gap under
    the hashed-threshold family exceed alpha*d + beta.
    """

    n_points: int
    dimension: int
    delta_sphere: float
    eps_gap: float
    k: int
    alpha: Number = 1
    beta: Number = 0

    def __post_init__(self):
        if self.n_points < 2 or self.n_points % 2:
            raise InvalidParameterError("point count must be even and at least 2")
        if self.dimension < 2:
            raise InvalidParameterError("need at least 2 dimensions for the circle")
        if self.k < 2:
            raise InvalidParameterError("k must be at least 2")
        if self.alpha < 1 or self.beta < 0:
            raise InvalidParameterError("need alpha >= 1 and beta >= 0")
        ceiling = 0.5 - 1.0 / (2 * self.k)
        if not self.beta < ceiling:
            raise InvalidParameterError(f"beta must be below 1/2 - 1/(2k) = {ceiling}")
        if not 0 < self.eps_gap < ceiling - self.beta:
            raise InvalidParameterError(
                f"eps_gap must lie in (0, {ceiling - self.beta})"
            )
        radius_cap = (ceiling - self.beta - self.eps_gap) / (2 * self.alpha)
        if not 0 < self.delta_sphere < radius_cap:
            raise InvalidParameterError(f"delta_sphere must lie in (0, {radius_cap})")
        if self.eps_gap > 2 * self.delta_sphere:
            raise InvalidParameterError("eps_gap cannot exceed the sphere diameter")
        # chord length is monotone in angle only up to pi: keep the whole
        # arc within a half circle so consecutive points realize the minimum
        step = 2.0 * math.asin(self.eps_gap / (2.0 * self.delta_sphere))
        if (self.n_points - 1) * step > math.pi:
            raise InvalidParameterError(
                "too many points for this eps_gap/delta_sphere ratio "
                "(the arc would leave a half circle)"
            )


def sphere_counterexample(
    cfg: SphereConstruction,
) -> tuple[Dataset, TabularScorer, ScaledEuclidean]:
    """Build the adversarial dataset, its perfectly fair scorer, and the
    metric they are measured under.

    The points lie on the radius-``delta_sphere`` circle in the first two
    coordinates at the uniform angular step whose chord is ``eps_gap``,
    so the minimum pairwise distance equals ``eps_gap`` by placement.
    Scores alternate between (1 +- gap)/2 along the arc, where the gap is
    the float-realized minimum distance: this makes the scorer exactly
    (1, 0, d)-fair.
    """
    step = 2.0 * math.asin(cfg.eps_gap / (2.0 * cfg.delta_sphere))
    coords = np.zeros((cfg.n_points, cfg.dimension))
    coords[:, :2] = [(cfg.delta_sphere * math.cos(i * step), cfg.delta_sphere * math.sin(i * step))
                     for i in range(cfg.n_points)]
    dataset = Dataset([f"s{i:03d}" for i in range(cfg.n_points)], coords)

    metric = ScaledEuclidean(1.0)
    gap = Fraction(min(pair_classes(dataset, metric, PairSet(len(dataset))).values))  # the realized float, exactly
    high = (1 + gap) / 2
    low = (1 - gap) / 2
    scorer = TabularScorer(
        {pid: (high if i % 2 == 0 else low) for i, pid in enumerate(dataset.ids)}
    )
    return dataset, scorer, metric


def verify_sphere_counterexample(
    cfg: SphereConstruction,
    dataset: Dataset,
    scorer: TabularScorer,
    metric: Metric,
) -> dict:
    """Exact verification of both halves of the construction: the scorer is
    (1, 0, d)-fair, and the hashed-threshold family's gap on every pair is
    at least 1/2 - eps_gap - 1/(2k), violating (alpha, beta, d)."""
    derand = Derandomizer.pi(scorer, dataset, IdentityBucketer(), cfg.k)
    table = prediction_table(derand, dataset, EstimatorConfig(mode="exact"))
    floor_value = Fraction(1, 2) - Fraction(str(cfg.eps_gap)) - Fraction(1, 2 * cfg.k)

    residual = scorer_beta(scorer, dataset, metric, 1)
    pairs = table.pair_classes(metric)
    pairs_below_floor = sum(w for n_diff, w in zip(pairs.class_counts.tolist(), pairs.weights.tolist())
                            if Fraction(n_diff, table.size) < floor_value)
    checked = int(pairs.weights.sum())
    pairs_not_violating = checked - _excesses(table.size, pairs, cfg.alpha, cfg.beta)[0]

    return {
        "pairs_checked": quantity(checked),
        "scorer_unfairness_residual": quantity(
            residual, bound=0, bound_source="scorer is (1, 0, d)-fair by construction"
        ),
        "family_gap_floor": quantity(floor_value),
        "pairs_below_gap_floor": quantity(
            pairs_below_floor, bound=0, bound_source="hashed-threshold unfairness floor"
        ),
        "pairs_not_violating_target": quantity(
            pairs_not_violating, bound=0, bound_source="every pair must violate (alpha, beta, d)"
        ),
    }


def finite_family_violation_search(
    derand: Derandomizer, metric: Metric, grid: Dataset, alpha: Number, beta: Number
) -> Optional[tuple[int, int]]:
    """Find a pair of adjacent grid points witnessing that the family is
    not (alpha, beta, d)-fair, by scanning for member discontinuities.

    The grid is an ordered path through the domain, one point per row; one
    exact prediction table over it counts the members that flip between
    neighbors.  Returns the rows (i, i + 1) of the first flip, or None when
    no member flips.  With beta < 1/|family| and adjacent spacing
    below (1/|family| - beta)/alpha (both exact), any flip certifies a violation.
    """
    if len(grid) < 2:
        raise InvalidParameterError("grid needs at least 2 points")
    size = derand.family_size
    if not beta < Fraction(1, size):
        raise InvalidParameterError(f"beta must be below 1/|family| = {1.0 / size}")

    table = prediction_table(derand, grid, EstimatorConfig(mode="exact"))
    flips = np.flatnonzero(table._splits(table.rows[:-1], table.rows[1:]))  # each row and the next
    if flips.size == 0:
        return None

    adjacent = PairSet(len(grid), np.arange(len(grid) - 1) * (len(grid) + 1) + 1)  # keys i * n + i + 1
    spacing = max(pair_classes(grid, metric, adjacent).values)
    if not Fraction(alpha) * Fraction(spacing) + Fraction(beta) < Fraction(1, size):
        raise GridTooCoarseError(
            f"adjacent spacing {float(spacing)} must be below {(1.0 / size - beta) / alpha}"
        )
    # every flip splits at least 1/|family| > alpha*d + beta of the family
    p = int(flips[0])
    return p, p + 1
