"""Strategic-agent analysis: utility of feature manipulation, best
responses over a finite candidate set, and the manipulation-incentive
budget implied by metric fairness.

An agent at x who presents x' instead receives utility
score(x') - cost(x, x').  When the classifier is (alpha, beta)-fair under
the cost metric, no move can gain more than (alpha - 1)*cost + beta; for
a classifier family the same holds for the family-mean prediction, which
is t/k under every family: c is uniform on [k], so a member predicts 1 at x
for t = floor(score(x) * k) of every k values.  Gains are therefore exact
in every estimator mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .core import Dataset, Point, StochasticScorer
from .derandomize import Derandomizer
from .errors import InvalidParameterError
from .measure import family_mean, manipulation_gain_bound
from .metrics import Metric

Number = Union[Fraction, float, int]

EXACT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class UtilityReport:
    """Best response of one origin: the chosen candidate, the utility
    gained over staying put, and the fairness-implied gain budget."""

    origin_id: str
    response_id: str
    utility_gain: Number
    bound: Number
    within_bound: bool

    def as_dict(self) -> dict:
        return {
            "origin": self.origin_id,
            "response": self.response_id,
            "gain": float(self.utility_gain),
            "bound": float(self.bound),
            "ok": self.within_bound,
        }


def _mean_predictions(source, points: Sequence[Point]) -> list[Number]:
    """Score of each point, or its family-mean prediction t/k."""
    if isinstance(source, StochasticScorer):
        return [source.score(p) for p in points]
    if isinstance(source, Derandomizer):
        return [family_mean(source, p) for p in points]
    raise InvalidParameterError(f"cannot score with {type(source).__name__}")


def _respond(origin, stay, candidates, predictions, cost, alpha, beta) -> UtilityReport:
    """Best response of origin, given the mean prediction at it (zero cost
    to stay put) and at each candidate."""
    by_id = sorted(zip(candidates, predictions), key=lambda pair: pair[0].id)
    best, best_utility = max(
        ((p, prediction - cost.distance(origin, p)) for p, prediction in by_id),
        key=lambda pair: pair[1],  # the first maximum: ties go to the lowest id
    )
    gain = best_utility - stay
    move_cost = cost.distance(origin, best)
    bound = manipulation_gain_bound(alpha, beta, move_cost)
    return UtilityReport(
        origin_id=origin.id,
        response_id=best.id,
        utility_gain=gain,
        bound=bound,
        within_bound=gain <= bound + EXACT_TOLERANCE,
    )


def best_responses(
    source,
    candidates: Dataset,
    cost: Metric,
    alpha: Number,
    beta: Number,
) -> list[UtilityReport]:
    """Best response of every candidate treated as an origin, from one
    mean prediction per candidate; ties go to the lowest id, and staying
    put costs nothing."""
    predictions = _mean_predictions(source, candidates)
    return [
        _respond(origin, stay, candidates, predictions, cost, alpha, beta)
        for origin, stay in zip(candidates, predictions)
    ]
