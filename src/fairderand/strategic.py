"""Strategic-agent analysis: best responses over a finite candidate set.

An agent at x who presents x' receives m(x') - cost(x, x'), with m the
classifier's mean prediction (a score, or t/k for a family).  Under an
(alpha, beta)-fair classifier no move gains more than (alpha - 1)*cost +
beta; a row {origin, response, gain} holds a best response and its gain, a
``quantity()`` entry against that budget, exact from exact costs.  Each
origin's costs are read from the pass's distance codes where it left them.
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
    codes, stay = pairs.codes, np.array([len(pairs.values)])  # staying put: the last code, at cost 0
    values = [Fraction(m) for m in means] + [decimal_distance(d) for d in pairs.values] + [0]
    numerators, den = over_common_denominator([v.as_integer_ratio() for v in values])  # int64 where all fit
    costs, order, starts = numerators[n:], np.argsort(candidates.ids, kind="stable"), PairSet(n).row_starts()
    by_id, earlier = numerators[:n][order], starts - np.arange(n) - 1  # pair (j, o) for j < o is at earlier[j] + o
    rows = []
    for o, origin in enumerate(candidates.ids):  # (j, o) for j < o, staying put, then the run (o, j) for j > o
        code = np.concatenate([codes[earlier[:o] + o], stay, codes[starts[o] : starts[o] + n - o - 1]])[order]
        utilities = by_id - costs[code]  # integer numerators over den, candidates in id order
        best = int(np.argmax(utilities))  # the first maximum: ties go to the lowest id
        bound = manipulation_gain_bound(alpha, beta, Fraction(int(costs[code[best]]), den))
        gain = Fraction(int(utilities[best]) - int(numerators[o]), den)  # in Python ints, whatever the dtype
        rows.append({"origin": origin, "response": candidates.ids[order[best]],
                     "gain": quantity(gain, None, bound, "manipulation budget (alpha - 1) * cost + beta")})
    return rows
