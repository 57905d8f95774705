"""Constructive witnesses for the negative results.

Two procedures live here:

* a dataset of near-coincident points with near-half scores on which the
  hashed-threshold derandomization is unfair on *every* pair, even though
  the scorer is perfectly fair;

* a grid-scan certificate that any finite family with a nontrivial member
  violates (alpha, beta)-fairness for beta below 1/|family|.

Both read the audit's own evaluation path: one exact ``prediction_table``
for the family's gaps, and ``Metric.pair_distances`` for the distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .core import Dataset, Point, TabularScorer
from .derandomize import Derandomizer, IdentityBucketer, PiDerandomizer
from .errors import GridTooCoarseError, InvalidParameterError
from .measure import EstimatorConfig, FairnessReport, prediction_table, scorer_beta
from .metrics import Metric, ScaledEuclidean


@dataclass(frozen=True)
class SphereConstruction:
    """Parameters of the adversarial dataset.

    Points sit on the sphere of radius ``delta_sphere`` about the origin;
    the score gap and minimum pairwise distance are both ``eps_gap``.  The
    parameter constraints make every pair's expected prediction gap under
    the hashed-threshold family exceed alpha*d + beta.
    """

    n_points: int
    dimension: int
    delta_sphere: float
    eps_gap: float
    k: int
    alpha: float = 1.0
    beta: float = 0.0

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

    Points are placed on the radius-``delta_sphere`` circle in the first
    two coordinates at the uniform angular step whose chord is ``eps_gap``,
    so the minimum pairwise distance equals ``eps_gap`` by placement.
    Scores alternate between (1 +- gap)/2 along the arc, where the gap is
    the float-realized minimum distance: this makes the scorer exactly
    (1, 0, d)-fair.
    """
    step = 2.0 * math.asin(cfg.eps_gap / (2.0 * cfg.delta_sphere))
    points = []
    for i in range(cfg.n_points):
        angle = i * step
        coords = [0.0] * cfg.dimension
        coords[0] = cfg.delta_sphere * math.cos(angle)
        coords[1] = cfg.delta_sphere * math.sin(angle)
        points.append(Point(f"s{i:03d}", tuple(coords)))
    dataset = Dataset(points)

    metric = ScaledEuclidean(1.0)
    _, distances = metric.pair_distances(dataset, *np.triu_indices(len(dataset), 1))
    gap = Fraction(min(distances))  # exact binary value of the realized float
    high = (1 + gap) / 2
    low = (1 - gap) / 2
    scorer = TabularScorer(
        {p.id: (high if i % 2 == 0 else low) for i, p in enumerate(dataset)}
    )
    return dataset, scorer, metric


def verify_sphere_counterexample(
    cfg: SphereConstruction,
    dataset: Dataset,
    scorer: TabularScorer,
    metric: Metric,
) -> FairnessReport:
    """Exact verification of both halves of the construction: the scorer is
    (1, 0, d)-fair, and the hashed-threshold family's gap on every pair is
    at least 1/2 - eps_gap - 1/(2k), violating (alpha, beta, d)."""
    derand = PiDerandomizer.build(scorer, dataset, IdentityBucketer(), cfg.k)
    table = prediction_table(derand, dataset, EstimatorConfig(mode="exact"))
    floor_value = Fraction(1, 2) - Fraction(str(cfg.eps_gap)) - Fraction(1, 2 * cfg.k)

    residual = scorer_beta(scorer, dataset, metric, 1)
    pairs = table.pair_classes(metric)
    classes = zip(pairs.class_codes.tolist(), pairs.class_counts.tolist(), pairs.weights.tolist())
    pairs_below_floor = 0
    pairs_not_violating = 0
    for code, n_diff, weight in classes:
        gap = Fraction(n_diff, table.size)
        if gap < floor_value:
            pairs_below_floor += weight
        if not gap > cfg.alpha * pairs.values[code] + Fraction(str(cfg.beta)):
            pairs_not_violating += weight

    report = FairnessReport()
    report.add("pairs_checked", int(pairs.codes.size))
    report.add(
        "scorer_unfairness_residual",
        residual,
        bound=0,
        bound_source="scorer is (1, 0, d)-fair by construction",
        satisfied=residual <= 0,
    )
    report.add("family_gap_floor", floor_value)
    report.add(
        "pairs_below_gap_floor",
        pairs_below_floor,
        bound=0,
        bound_source="hashed-threshold unfairness floor",
        satisfied=pairs_below_floor == 0,
    )
    report.add(
        "pairs_not_violating_target",
        pairs_not_violating,
        bound=0,
        bound_source="every pair must violate (alpha, beta, d)",
        satisfied=pairs_not_violating == 0,
    )
    return report


def finite_family_violation_search(
    derand: Derandomizer,
    metric: Metric,
    grid: Sequence[Point],
    alpha: float,
    beta: float,
) -> Optional[tuple[Point, Point]]:
    """Find a pair of adjacent grid points witnessing that the family is
    not (alpha, beta, d)-fair, by scanning for member discontinuities.

    The grid is an ordered path through the domain; one exact prediction
    table over it counts the members that flip between neighbors.  Returns
    None when no member flips.  With beta < 1/|family| and adjacent spacing
    below (1/|family| - beta)/alpha, any flip certifies a violation.
    """
    derand._check_enumerable()
    if len(grid) < 2:
        raise InvalidParameterError("grid needs at least 2 points")
    size = derand.family_size
    if not beta < 1.0 / size:
        raise InvalidParameterError(f"beta must be below 1/|family| = {1.0 / size}")

    table = prediction_table(derand, grid, EstimatorConfig(mode="exact"))
    i = np.arange(len(grid) - 1)
    flips = table.split_counts(i, i + 1)
    if not flips.any():
        return None

    spacing_cap = (1.0 / size - beta) / alpha
    codes, values = metric.pair_distances(grid, i, i + 1)
    spacing = max(float(d) for d in values)
    if spacing >= spacing_cap:
        raise GridTooCoarseError(
            f"adjacent spacing {spacing} must be below {spacing_cap}"
        )

    for p in np.flatnonzero(flips).tolist():
        gap = Fraction(int(flips[p]), size)
        if gap > alpha * values[codes[p]] + beta:
            return grid[p], grid[p + 1]
    return None
