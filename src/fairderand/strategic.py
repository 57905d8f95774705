"""Strategic-agent analysis: best responses over a finite candidate set.

An agent at x who presents x' receives m(x') - cost(x, x'), with m the
classifier's mean prediction (a score, or t/k for a family).  Under an
(alpha, beta)-fair classifier no move gains more than (alpha - 1)*cost +
beta; a row {origin, response, gain} holds a best response and its gain, a
``quantity()`` entry against that budget, exact from exact costs.
"""

from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import Dataset, over_common_denominator
from .measure import Number, manipulation_gain_bound, pair_classes, quantity
from .metrics import Metric, PairSet, decimal_distance


def best_responses(
    means: Sequence[Number], candidates: Dataset, cost: Metric, alpha: Number, beta: Number
) -> list[dict]:
    """Best response of every candidate as an origin, given the mean
    prediction at each candidate in dataset order; ties go to the lowest id."""
    n = len(candidates)
    pairs = pair_classes(candidates, cost, PairSet(n), codes=True)  # each pair's distance, once
    codes, distances = pairs.codes, pairs.values
    values = [Fraction(m) for m in means] + [decimal_distance(d) for d in distances]
    numerators, den = over_common_denominator([v.as_integer_ratio() for v in values])
    numerators = numerators.tolist()
    costs = np.array(numerators[n:] + [0], dtype=object)  # the last code: staying put
    code = np.full((n, n), len(distances), dtype=np.min_scalar_type(len(distances)))
    code[np.triu_indices(n, 1)] = codes
    order = np.argsort(candidates.ids, kind="stable")
    code = np.minimum(code, code.T)[:, order]  # by origin, then candidate in id order
    by_id = np.array(numerators[:n], dtype=object)[order]
    rows = []
    for o, origin in enumerate(candidates.ids):
        utilities = by_id - costs[code[o]]  # integer numerators over den
        best = int(np.argmax(utilities))  # the first maximum: ties go to the lowest id
        bound = manipulation_gain_bound(alpha, beta, Fraction(costs[code[o, best]], den))
        gain = Fraction(utilities[best] - numerators[o], den)
        rows.append({"origin": origin, "response": candidates.ids[order[best]],
                     "gain": quantity(gain, None, bound, "manipulation budget (alpha - 1) * cost + beta")})
    return rows
