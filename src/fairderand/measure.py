"""Estimators, exact oracles, and closed-form bounds for every audited quantity.

Exact mode enumerates the full classifier family and reports rationals
(integer counts over family-size denominators), so comparisons against
bounds like 1/k are free of float noise.  Monte Carlo mode samples
classifiers with the array draws of ``CountingRng(seed)``, vectorized
over trials, and reports standard errors.  Every report entry comes from
``quantity()``, which holds the one verdict rule: a value meets its bound when
|value| <= bound + 4 * stderr, with stderr 0 for an exact value.

Every audited quantity reduces one ``PredictionTable``: the prediction of
every family member (or sampled classifier) at every dataset point.
``prediction_table`` reads the bucketing's ``vectors`` once and asks the
oracle once per block of about ``PAIR_CHUNK_BYTES`` predictions: the
bucketing's one embedder maps the block to the embedded buckets e under
every enumerated (exact) or drawn (Monte Carlo) member, the residues
(a * e + c) mod k are compared with t = floor(score * k), and the rows are
packed into bits and added to the per-member counts that bias and
variance need.  The tail check embeds its sampled classifiers with the
same embedder, in one call.  Only ``decomposition_check`` draws its own
batch, because its Bernoulli draws continue that batch's stream.

Pair quantities read one pass per table and metric over every pair, or
the capped ``sample_pairs``, whose only state is the at most ``cap`` sorted
keys it accepts.  The pass reads pairs in blocks and writes per pair the
split count (a popcount of the XOR of two prediction rows) and the code
from ``Metric.pair_distances`` in the smallest unsigned dtypes; the
histogram of (distance, split count) classes accumulates block by block.
Exact reductions evaluate their Python expression once per class, so
rationals stay exact and int, Fraction and float parameters keep their
arithmetic; Monte Carlo ones evaluate count/size - budget as one array.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import Dataset, Point, StochasticScorer, threshold_count
from .derandomize import Derandomizer, LsDerandomizer, RtDerandomizer
from .errors import EmptyPairSetError, InvalidParameterError, NotEnumerableError
from .metrics import PAIR_CHUNK_BYTES, Distance, Metric, PairSet, over_pairs, popcounts
from .rng import CountingRng

Number = Union[Fraction, float, int]

DEFAULT_PAIRS_CAP = 200_000
SAMPLE_BLOCK = 1 << 15  # draws of the pair stream per block
TAIL_SLACK = 0.05  # sampling slack on the violating-classifier fraction


@dataclass
class EstimatorConfig:
    """How a quantity is estimated: exact family enumeration or seeded
    Monte Carlo with a trial budget."""

    mode: str = "exact"
    trials: int = 100_000
    seed: int = 0
    pairs_cap: int = DEFAULT_PAIRS_CAP

    def __post_init__(self):
        if self.mode not in ("exact", "mc"):
            raise InvalidParameterError(f"unknown estimator mode {self.mode!r}")
        if self.trials < 1:
            raise InvalidParameterError("trials must be at least 1")
        if self.pairs_cap < 1:
            raise InvalidParameterError("pairs_cap must be at least 1")

    @property
    def exact(self) -> bool:
        return self.mode == "exact"


@dataclass(frozen=True)
class Estimate:
    """A measured quantity: exact rational, or float with a standard error."""

    value: Number
    stderr: Optional[float] = None

    def __float__(self) -> float:
        return float(self.value)


def quantity(
    value: Number,
    stderr: Optional[float] = None,
    bound: Optional[Number] = None,
    bound_source: Optional[str] = None,
) -> dict:
    """One report entry {value, stderr?, bound?, bound_source?, satisfied?}.
    A bound sets ``satisfied`` by the one verdict rule of every report:
    |value| <= bound + 4 * stderr, with stderr 0 for an exact value."""
    entry: dict = {"value": value}
    if stderr is not None:
        entry["stderr"] = stderr
    if bound is not None:
        entry["bound"] = bound
        entry["satisfied"] = abs(value) <= bound + 4 * (stderr or 0)
    if bound_source is not None:
        entry["bound_source"] = bound_source
    return entry


# ---------------------------------------------------------------------------
# pair selection

def sample_pairs(n_points: int, cap: int = DEFAULT_PAIRS_CAP, seed: int = 0) -> tuple[PairSet, Optional[int]]:
    """Every pair of distinct points, or above the cap the sorted keys
    i * n + j of the first ``cap`` distinct pairs (i < j) that a rejection
    loop of (uniform_int(n), uniform_int(n)) draws from ``CountingRng(seed)``;
    and the seed (None when every pair is kept).  The stream is drawn in
    blocks of min(cap, SAMPLE_BLOCK) draws, and only the sorted accepted keys
    are kept across blocks: each block merges in its distinct keys, and one
    that may reach the cap keeps the new keys whose first draw came first."""
    if n_points * (n_points - 1) // 2 <= cap:
        return PairSet(n_points), None
    rng, block = CountingRng(seed), min(cap, SAMPLE_BLOCK)
    accepted, size = np.empty(cap + block, dtype=np.int64), 0  # accepted[:size], sorted
    while size < cap:
        draws = rng.uniform_ints(n_points, 2 * block).reshape(-1, 2)
        keys, hi = np.minimum(draws[:, 0], draws[:, 1]), np.maximum(draws[:, 0], draws[:, 1])
        keys = (keys * n_points + hi)[keys != hi]  # in stream order
        del draws, hi
        if size + keys.size <= cap:
            keys.sort()
        else:
            order = np.argsort(keys)
            keys = keys[order]
            starts = np.flatnonzero(_run_firsts(keys))
            keys, first = keys[starts], np.minimum.reduceat(order, starts)  # each key's first draw
            new = accepted[np.minimum(np.searchsorted(accepted[:size], keys), size - 1)] != keys
            keys, first = keys[new], first[new]
            if keys.size > cap - size:  # the first draws that fill the cap
                keys = keys[first <= np.partition(first, cap - size - 1)[cap - size - 1]]
        keys = keys[_run_firsts(keys)]
        merged = accepted[: size + keys.size]
        merged[size:] = keys
        merged.sort(kind="stable")  # a linear merge of the two sorted runs
        first, size = _run_firsts(merged), 0
        for s in range(0, merged.size, block):  # drop repeats in place, a block at a time
            kept = merged[s : s + block][first[s : s + block]]
            accepted[size : size + kept.size] = kept
            size += kept.size
    return PairSet(n_points, accepted[:cap]), seed


def select_pairs(n_points: int, cap: int = DEFAULT_PAIRS_CAP, seed: int = 0) -> tuple:
    """The index arrays (i, j) of the pairs of ``sample_pairs``, and its seed."""
    pairs, seed = sample_pairs(n_points, cap, seed)
    return (*(np.triu_indices(n_points, 1) if pairs.keys is None else np.divmod(pairs.keys, n_points)), seed)


def _run_firsts(keys: np.ndarray) -> np.ndarray:
    """True at the first key of each run of equal keys."""
    return np.concatenate(([True], keys[1:] != keys[:-1]))[: keys.size]


# ---------------------------------------------------------------------------
# the oracle and the prediction table

class _ClassifierBatch:
    """The classifiers of one table: every family member in enumeration
    order (exact, no draws), or ``trials`` members sampled uniformly by
    the array draws of a ``CountingRng`` (Monte Carlo).

    Sampled parameters are drawn once, at construction (a, then c, then
    the bucketings), and shared across blocks, so pairwise quantities see
    each classifier at both points.
    """

    def __init__(self, derand: Derandomizer, trials: int, rng: Optional[CountingRng]):
        self.derand = derand
        family = derand.bucketing
        if rng is None:
            derand._check_enumerable()
            self.size, self.residues = derand.family_size, None
            keys = family.keys(family.enumerate())
        else:
            self.size = trials
            self.residues = derand.pi_family.sample_batch(rng, trials)
            keys = family.draw(rng, trials)
        self.embeds = family.embedder(keys, derand.pi_family.embed_value)

    def bits(self, points: Sequence[Point], t: np.ndarray, x: Optional[np.ndarray]) -> np.ndarray:
        """The (points, classifiers) bool matrix of u <= t over a block, with
        x its ``bucketing.vectors``.  Exact mode forms one row of residues
        per distinct (bucket, t) in the block and gathers it per bucketing."""
        e = self.embeds(points, x)
        if self.residues is not None:
            return self.residues(e) < t[:, None]  # u = residue + 1 <= t
        k = self.derand.k
        keys, inverse = np.unique((e.astype(np.int64) * (k + 1) + t[:, None]).reshape(-1), return_inverse=True)
        e, t = np.divmod(keys, k + 1)
        a, c = self.derand.pi_family.coefficients
        rows = (e[:, None].astype(a.dtype) * a + c) % k < t[:, None]
        return rows[inverse].reshape(len(points), -1)


@dataclass(frozen=True)
class PairClasses:
    """One pass over pairs: per pair, its distance code into ``values`` and
    its split count; per distinct (code, count) class, its number of pairs."""

    pair_seed: Optional[int]  # None: every pair, in np.triu_indices order
    values: list[Distance]
    codes: np.ndarray
    counts: np.ndarray
    class_codes: np.ndarray
    class_counts: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True, eq=False)
class PredictionTable:
    """f_h(x) for every family member h (exact) or every classifier of one
    seeded batch (Monte Carlo), at every point x of the dataset.

    ``packed[r]`` is the prediction row of point r, packed 8 members (or
    trials) to a byte, in whole uint64 words.  Bias and variance read only
    ``sums``, the number of points each member (or trial) predicts 1."""

    derand: Derandomizer
    dataset: Sequence[Point]
    cfg: EstimatorConfig
    scores: tuple[Fraction, ...]
    t: np.ndarray  # floor(score * k) per point
    size: int  # members or trials
    packed: np.ndarray
    vectors: Optional[np.ndarray]  # derand.bucketing.vectors(dataset)
    sums: np.ndarray  # in the smallest unsigned dtype that holds len(dataset)
    _passes: list = field(default_factory=list, init=False, repr=False)

    def ones(self, r: int) -> int:
        """Members (or trials) that predict 1 at point r."""
        return int(np.bitwise_count(self.packed[r]).sum())

    def mean(self, r: int) -> Estimate:
        """Mean prediction at point r."""
        return _share(self.ones(r), self.size, self.cfg.exact)

    def bias(self, r: int) -> Estimate:
        """Mean prediction at point r minus its score."""
        mean, score = self.mean(r), self.scores[r]
        return Estimate(mean.value - (score if self.cfg.exact else float(score)), mean.stderr)

    def variance(self, r: int) -> Estimate:
        """Variance of the prediction bit at point r across the members."""
        if self.cfg.exact:
            p = self.mean(r).value
            return Estimate(p * (1 - p))
        _check_trials(self.size)
        bits = self.bits(r).astype(float)
        return Estimate(float(bits.var(ddof=1)), _variance_stderr(bits))

    def bits(self, r: int) -> np.ndarray:
        return np.unpackbits(self.packed[r], count=self.size)

    def split_counts(self, i, j: Optional[np.ndarray] = None) -> np.ndarray:
        """Members (or trials) that predict differently at the points of each
        pair (i[p], j[p]), or of the PairSet i: popcounts of XORed rows."""
        words = self.packed.view(np.uint64)
        pairs = i if j is None else PairSet(len(words), i * len(words) + j)
        return over_pairs(lambda a, b: popcounts(a ^ b), pairs, words, np.min_scalar_type(self.size))

    def pair_classes(self, metric: Metric, capped: bool = False) -> PairClasses:
        """The pass over every pair (or the capped ``sample_pairs``) under
        the metric, computed once; a capped pass of every pair serves both."""
        for m, c, classes in self._passes:
            if m is metric and (c == capped or (c and classes.pair_seed is None)):
                return classes
        n = len(self.dataset)
        pairs, seed = sample_pairs(n, self.cfg.pairs_cap if capped else n * n, self.cfg.seed)
        counts = self.split_counts(pairs)
        codes, values = metric.pair_distances(self.dataset, pairs)
        keys, weights = _class_histogram(codes, counts, self.size + 1)
        classes = PairClasses(seed, values, codes, counts, *np.divmod(keys, self.size + 1), weights)
        self._passes.append((metric, capped, classes))
        return classes


def _class_histogram(codes: np.ndarray, counts: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys code * width + count, sorted, and their numbers of
    pairs: block histograms, merged once they hold as many keys as the merged."""
    parts, pending, step = [(np.zeros(0, dtype=np.int64),) * 2], 0, PAIR_CHUNK_BYTES // 8
    for s in range(0, codes.size, step):
        keys = np.sort(codes[s : s + step].astype(np.int64) * width + counts[s : s + step])
        starts = np.flatnonzero(_run_firsts(keys))
        parts.append((keys[starts], np.diff(starts, append=keys.size)))
        pending += starts.size
        if pending >= parts[0][0].size:
            parts, pending = [_merge_histograms(parts)], 0
    return _merge_histograms(parts)


def _merge_histograms(parts: list) -> tuple[np.ndarray, np.ndarray]:
    keys, weights = (np.concatenate(column) for column in zip(*parts))
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(_run_firsts(keys))
    return keys[starts], np.add.reduceat(weights[order], starts)


def prediction_table(
    derand: Derandomizer, dataset: Sequence[Point], cfg: EstimatorConfig
) -> PredictionTable:
    """Evaluate one batch, the whole family (exact) or one seeded with
    cfg.seed (Monte Carlo), one block of points at a time."""
    batch = _ClassifierBatch(derand, cfg.trials, None if cfg.exact else CountingRng(cfg.seed))
    scores = tuple(derand.scorer.score(p) for p in dataset)
    t = np.array([threshold_count(s, derand.k) for s in scores], dtype=np.int64)
    x = derand.bucketing.vectors(dataset)
    size = batch.size  # rows padded to whole uint64 words
    packed = np.zeros((len(dataset), (size + 63) // 64 * 8), dtype=np.uint8)
    sums = np.zeros(size, dtype=np.min_scalar_type(len(dataset)))  # counts <= len(dataset)
    step = max(1, PAIR_CHUNK_BYTES // size)
    for s in range(0, len(dataset), step):
        block = slice(s, s + step)
        bits = batch.bits(dataset[block], t[block], None if x is None else x[block])
        packed[block, : (size + 7) // 8] = np.packbits(bits, axis=1)
        sums += np.add.reduce(bits, axis=0, dtype=sums.dtype)
    return PredictionTable(derand, dataset, cfg, scores, t, size, packed, x, sums)


def _share(count: int, size: int, exact: bool) -> Estimate:
    """count/size: an exact rational, or a float with its binomial
    standard error."""
    if exact:
        return Estimate(Fraction(count, size))
    p = count / size
    return Estimate(p, math.sqrt(max(p * (1.0 - p), 0.0) / size))


def _pair_excesses(table: PredictionTable, classes: PairClasses, budget: Callable) -> list[Number]:
    """gap - budget(d) per class, with the gap count/size exact or float as
    in ``_share``; budget runs once per distinct distance."""
    budgets = [budget(d) for d in classes.values]
    codes, counts = classes.class_codes, classes.class_counts
    if not table.cfg.exact:  # float - Fraction is float(a) - float(b)
        return (counts / table.size - np.array([float(b) for b in budgets])[codes]).tolist()
    return [Fraction(n, table.size) - budgets[c] for c, n in zip(codes.tolist(), counts.tolist())]


def _close_pairs(n_points: int, codes: np.ndarray, values: list[Distance], tau: Number):
    """(i, j) of the pairs within distance tau, and their mask over every
    pair in np.triu_indices order: each close position p lies in the row i
    of the last row start <= p."""
    close = np.array([d <= tau for d in values], dtype=bool)[codes]
    p = np.flatnonzero(close)
    rows = np.arange(n_points, dtype=np.int64)
    starts = rows * (2 * n_points - rows - 1) // 2  # the position of pair (i, i + 1)
    i = np.searchsorted(starts, p, side="right") - 1
    return i, p - starts[i] + i + 1, close


# ---------------------------------------------------------------------------
# bias and variance

def aggregate_bias(table: PredictionTable) -> Estimate:
    """Dataset average of the pointwise bias."""
    n = len(table.dataset)
    if table.cfg.exact:
        total = int(table.sums.sum())
        numerators, den = over_common_denominator(table.scores)
        return Estimate((Fraction(total, table.size) - Fraction(sum(numerators), den)) / n)
    _check_trials(table.size)
    mu = table.sums / n
    mean_score = sum(map(float, table.scores)) / n
    return Estimate(float(mu.mean()) - mean_score, float(mu.std(ddof=1)) / math.sqrt(table.size))


def over_common_denominator(scores: Sequence[Fraction]) -> tuple[list[int], int]:
    """The scores as integer numerators over their least common
    denominator, so that sums over them are integer arithmetic."""
    den = math.lcm(*{s.denominator for s in scores})
    return [s.numerator * (den // s.denominator) for s in scores], den


def aggregate_variance(table: PredictionTable) -> Estimate:
    """Variance, across family members, of the member's dataset-mean
    prediction."""
    n = len(table.dataset)
    if table.cfg.exact:
        sums = table.sums.astype(np.int64)  # sum_m S_m^2 <= size * n^2: no overflow
        total, total_sq = int(sums.sum()), int(sums @ sums)
        mean_sq = Fraction(total_sq, table.size * n * n)
        mean = Fraction(total, table.size * n)
        return Estimate(mean_sq - mean * mean)
    _check_trials(table.size)
    mu = table.sums / n
    return Estimate(float(mu.var(ddof=1)), _variance_stderr(mu))


def _check_trials(trials: int):  # for every Monte Carlo variance, ddof=1
    if trials < 2:
        raise InvalidParameterError("an mc audit needs at least 2 trials: its variance divides by trials - 1")


def _variance_stderr(samples: np.ndarray) -> float:
    """Asymptotic standard error of the sample variance via the fourth
    central moment."""
    m = samples.size
    centered = samples - samples.mean()
    m4 = float((centered**4).mean())
    var = float(centered.var())
    return math.sqrt(max(m4 - var * var, 0.0) / m)


# ---------------------------------------------------------------------------
# pairwise and aggregate fairness

def metric_fairness_check(
    table: PredictionTable, metric: Metric, alpha: Number, beta: Number
) -> dict:
    """Check E[|f(x) - f(x')|] <= alpha*d + beta on every pair (or a
    seeded subsample above the pair cap)."""
    classes = table.pair_classes(metric, capped=True)
    if classes.codes.size == 0:
        raise EmptyPairSetError(f"no pairs to check among {len(table.dataset)} point(s)")
    excesses = _pair_excesses(table, classes, lambda d: alpha * d + beta)
    violations = sum(w for e, w in zip(excesses, classes.weights.tolist()) if e > 0)
    worst_excess = max(excesses)  # the first maximum, as a loop keeps

    report = {"pairs_checked": quantity(int(classes.codes.size))}
    if classes.pair_seed is not None:
        report["pair_sample_seed"] = quantity(classes.pair_seed)
    report["fairness_violations"] = quantity(violations, bound=0, bound_source="pairwise fairness definition")
    report["worst_excess"] = quantity(worst_excess)
    return report


def sampled_aggregate_fairness(
    table: PredictionTable,
    metric: Metric,
    tau: float,
    n_classifiers: int,
    rng: CountingRng,
) -> list[Fraction]:
    """Split fraction of tau-close pairs for each of n sampled classifiers,
    embedded in one call.  A classifier predicts 1 at x iff u(x) <= t[x],
    with t read from the table."""
    classes = table.pair_classes(metric)
    i, j, _ = _close_pairs(len(table.dataset), classes.codes, classes.values, tau)
    if i.size == 0:
        raise EmptyPairSetError(f"no pairs within distance {tau}")
    derand = table.derand
    clfs = [derand.sample(rng) for _ in range(n_classifiers)]
    keys = derand.bucketing.keys([clf.member for clf in clfs])
    e = derand.bucketing.embedder(keys, derand.pi_family.embed_value)(table.dataset, table.vectors)
    a, c = (np.array([getattr(clf.h, name) for clf in clfs], dtype=np.int64) for name in "ac")
    bits = (a * e + c) % derand.k < table.t[:, None]  # u = residue + 1 <= t
    return [Fraction(int((column[i] != column[j]).sum()), i.size) for column in bits.T]


def aggregate_fairness_tail_check(
    table: PredictionTable,
    metric: Metric,
    alpha: Number,
    tau: float,
    delta: float,
    n_classifiers: int,
    rng: CountingRng,
) -> dict:
    """Sample classifiers and check the high-probability aggregate bound:
    at most a delta fraction may split more than (1 + 1/sqrt(delta)) times
    the family's certified pairwise budget (alpha*tau + beta)."""
    if n_classifiers < 1:
        raise InvalidParameterError("n_classifiers must be at least 1")
    rhos = sampled_aggregate_fairness(table, metric, tau, n_classifiers, rng)
    beta = family_beta(table, metric, alpha)
    bound = aggregate_tail_bound(alpha, beta, tau, delta)
    violating = sum(float(r) > bound for r in rhos)
    fraction = violating / n_classifiers
    return {
        "certified_beta": quantity(beta),
        "split_fraction_bound": quantity(bound),
        "violating_classifier_fraction": quantity(
            fraction, bound=delta + TAIL_SLACK, bound_source="sampling tail probability (plus sampling slack)"
        ),
    }


def threshold_fairness_check(
    table: PredictionTable, metric: Metric, sigma: float, tau: float
) -> dict:
    """Over pairs within distance sigma, check the family's expected
    prediction gap against tau; for the locality-sensitive scheme with
    k >= 4/sigma, also against the preserved guarantee sigma + tau.
    With no pair within sigma there is nothing to check, and it raises."""
    if not (0 < sigma < 1 and 0 < tau < 1):
        raise InvalidParameterError("sigma and tau must lie in (0, 1)")
    classes = table.pair_classes(metric)
    i, j, close = _close_pairs(len(table.dataset), classes.codes, classes.values, sigma)
    if i.size == 0:
        raise EmptyPairSetError(f"no pairs within distance {sigma}")
    n_diff = int(classes.counts[close].max())
    # max() keeps its first maximal argument: an int 0 when no pair differs
    worst: Number = max(0, _share(n_diff, table.size, table.cfg.exact).value)
    scores = table.scores
    scorer_worst: Number = max([0, *(abs(scores[a] - scores[b]) for a, b in zip(i.tolist(), j.tolist()))])

    report = {"pairs_within_sigma": quantity(int(i.size)), "scorer_max_gap": quantity(scorer_worst)}
    bounds = [("max_gap", tau, "threshold fairness target")]
    derand = table.derand
    if isinstance(derand, LsDerandomizer) and derand.k >= 4 / sigma:
        bounds.append(("max_gap_vs_preserved_guarantee", ls_threshold_fairness_bound(sigma, tau),
                       "threshold fairness preservation (k >= 4/sigma)"))
    if isinstance(derand, RtDerandomizer):
        bounds.append(("max_gap_vs_grid_guarantee", rt_threshold_fairness_bound(tau, derand.k),
                       "threshold fairness preservation (1/k grid)"))
    for name, bound, source in bounds:
        report[name] = quantity(worst, bound=bound, bound_source=source)
    return report


# ---------------------------------------------------------------------------
# bias-variance decomposition

def decomposition_check(
    derand: Derandomizer, point: Point, cfg: EstimatorConfig
) -> dict:
    """Joint Monte Carlo check of the error decomposition: the expected gap
    between a sampled member and a Bernoulli realization of the score is at
    most |bias| + 2 * (score variance + family variance)^(2/3).

    The Bernoulli variance is score*(1 - score) analytically; the family
    variance and bias come from enumeration when the family is enumerable
    within the cap, and from a seeded batch otherwise.
    """
    _check_trials(cfg.trials)
    score = derand.scorer.score(point)
    var_bern = score * (1 - score)
    try:
        table = prediction_table(derand, (point,), EstimatorConfig(mode="exact", seed=cfg.seed))
    except NotEnumerableError:
        table = prediction_table(derand, (point,), EstimatorConfig(mode="mc", trials=cfg.trials, seed=cfg.seed))
    bias, var_family = table.bias(0).value, table.variance(0).value

    rhs = decomposition_bound(abs(bias), var_bern, var_family)
    rng = CountingRng(cfg.seed)
    batch = _ClassifierBatch(derand, cfg.trials, rng)
    t = np.array([threshold_count(score, derand.k)])
    member_bits = batch.bits((point,), t, derand.bucketing.vectors((point,)))[0]
    bern_bits = rng.bernoullis(score, cfg.trials)
    lhs = _share(int((member_bits != bern_bits).sum()), cfg.trials, False)

    return {
        "bias_abs": quantity(abs(bias)),
        "score_variance": quantity(var_bern),
        "family_variance": quantity(var_family),
        "expected_gap": quantity(lhs.value, lhs.stderr, rhs, "bias-variance decomposition"),
    }


# ---------------------------------------------------------------------------
# empirical fairness curve and certification

def empirical_fairness_curve(
    table: PredictionTable, metric: Metric, alphas: Sequence[float]
) -> list[tuple[float, float]]:
    """For each slope a on the grid, the mean residual additive unfairness
    b(a) = mean over the table's capped pairs of max(gap - a*d, 0), gap being
    the family's expected prediction gap; the classes add up exactly (fsum)."""
    classes = table.pair_classes(metric, capped=True)
    if classes.codes.size == 0:
        raise InvalidParameterError("need at least 2 points")
    g, n = classes.class_counts / table.size, classes.codes.size
    d = np.array([float(v) for v in classes.values])[classes.class_codes]
    return [(float(a), math.fsum((classes.weights * np.maximum(g - float(a) * d, 0.0)).tolist()) / n) for a in alphas]


def scorer_beta(
    scorer: StochasticScorer, dataset: Dataset, metric: Metric, alpha: Number
) -> Number:
    """Smallest beta for which the scorer is (alpha, beta)-fair on the
    dataset: max over pairs of (|score gap| - alpha*d)+."""
    scores = [scorer.score(p) for p in dataset]
    i, j = np.triu_indices(len(dataset), 1)
    codes, values = metric.pair_distances(dataset, i, j)
    pairs = zip(i.tolist(), j.tolist(), codes.tolist())
    # max() keeps its first maximal argument: an int 0 when no excess is positive
    return max([0, *(abs(scores[a] - scores[b]) - alpha * values[c] for a, b, c in pairs)])


def family_beta(table: PredictionTable, metric: Metric, alpha: Number) -> Number:
    """Smallest beta for which the family is (alpha, beta)-fair on the
    dataset pairs, from exact (or estimated) pairwise gaps."""
    # max() keeps its first maximal argument: an int 0 when no excess is positive
    return max([0, *_pair_excesses(table, table.pair_classes(metric), lambda d: alpha * d)])


# ---------------------------------------------------------------------------
# closed-form bounds

def _check_fairness_params(alpha: Number, beta: Number):
    if alpha < 1:
        raise InvalidParameterError("alpha must be at least 1")
    if beta < 0:
        raise InvalidParameterError("beta must be non-negative")


def _check_unit(name: str, value: Number):
    if not 0 <= value <= 1:
        raise InvalidParameterError(f"{name} must lie in [0, 1]")


def bias_bound(k: int) -> Fraction:
    """1/k: bias budget of the hashed-threshold schemes (and the grid
    random threshold on arbitrary scores)."""
    if k < 1 or k % 1:
        raise InvalidParameterError("k must be a positive integer")
    return Fraction(1, int(k))


def pi_variance_bound(max_bucket_mass: Number, mean_score_variance: Number, k: int) -> Number:
    """Hashed-threshold variance budget: (max bucket mass) * E[f(1-f)] + 1/k."""
    _check_unit("max_bucket_mass", max_bucket_mass)
    return max_bucket_mass * mean_score_variance + bias_bound(k)


def ls_variance_bound(
    mean_max_bucket_mass: Number, mean_score_variance: Number, k: int
) -> Number:
    """Same form with the bucket-mass term averaged over the hash family."""
    _check_unit("mean_max_bucket_mass", mean_max_bucket_mass)
    return mean_max_bucket_mass * mean_score_variance + bias_bound(k)


def rt_variance_bound(mean_score_variance: Number) -> Number:
    """Random-threshold variance budget: E[f(1-f)] (inequality only; no
    tightness or cross-scheme ordering is claimed)."""
    return mean_score_variance


def ls_pairwise_bound(
    alpha: Number, beta: Number, d: Number, k: int, fx: Number, fy: Number
) -> Number:
    """Score-dependent pairwise fairness budget:
    (alpha + 2*min(1-max)) * d + beta + 2/k."""
    _check_fairness_params(alpha, beta)
    for name, value in (("d", d), ("fx", fx), ("fy", fy)):
        _check_unit(name, value)
    lo_score, hi_score = min(fx, fy), max(fx, fy)
    return (alpha + 2 * lo_score * (1 - hi_score)) * d + beta + 2 * bias_bound(k)


def worst_case_pairwise_bound(alpha: Number, beta: Number, d: Number, epsilon: Number) -> Number:
    """Worst case over scores (min(1-max) <= 1/4):
    (alpha + 1/2) * d + beta + epsilon, with epsilon >= 2/k."""
    _check_fairness_params(alpha, beta)
    _check_unit("d", d)
    if epsilon <= 0:
        raise InvalidParameterError("epsilon must be positive")
    return (alpha + Fraction(1, 2)) * d + beta + epsilon


def aggregate_tail_bound(alpha: Number, beta: Number, tau: Number, delta: float) -> float:
    """(1 + 1/sqrt(delta)) * (alpha*tau + beta): the split-fraction level
    that at most a delta fraction of sampled classifiers may exceed."""
    _check_fairness_params(alpha, beta)
    _check_unit("tau", tau)
    if not 0 < delta < 1:
        raise InvalidParameterError("delta must lie in (0, 1)")
    return (1.0 + 1.0 / math.sqrt(delta)) * float(alpha * tau + beta)


def worst_case_aggregate_bound(
    alpha: Number, beta: Number, tau: Number, delta: float, epsilon: Number
) -> float:
    """Aggregate version of the worst-case pairwise budget:
    (1 + 1/sqrt(delta)) * (alpha*tau + tau/2 + beta + epsilon)."""
    if epsilon <= 0:
        raise InvalidParameterError("epsilon must be positive")
    return aggregate_tail_bound(
        alpha, beta + tau * Fraction(1, 2) + epsilon, tau, delta
    )


def decomposition_bound(
    bias_abs: Number, bernoulli_variance: Number, family_variance: Number
) -> float:
    """|bias| + 2 * (variance sum)^(2/3)."""
    if bias_abs < 0 or bernoulli_variance < 0 or family_variance < 0:
        raise InvalidParameterError("decomposition inputs must be non-negative")
    return float(bias_abs) + 2.0 * float(bernoulli_variance + family_variance) ** (2.0 / 3.0)


def manipulation_gain_bound(alpha: Number, beta: Number, cost: Number) -> Number:
    """(alpha - 1) * cost + beta: utility gain budget for a fair classifier."""
    _check_fairness_params(alpha, beta)
    if cost < 0:
        raise InvalidParameterError("cost must be non-negative")
    return (alpha - 1) * cost + beta


def rt_threshold_fairness_bound(tau: Number, k: int) -> Number:
    """tau + 1/k: grid random threshold preserves threshold fairness up to
    the grid precision."""
    _check_unit("tau", tau)
    return tau + bias_bound(k)


def ls_threshold_fairness_bound(sigma: Number, tau: Number) -> Number:
    """sigma + tau: the preserved threshold-fairness budget for the
    locality-sensitive scheme with k >= 4/sigma."""
    _check_unit("sigma", sigma)
    _check_unit("tau", tau)
    return sigma + tau


BOUND_REGISTRY = {
    "bias": bias_bound,
    "pi_variance": pi_variance_bound,
    "ls_variance": ls_variance_bound,
    "rt_variance": rt_variance_bound,
    "ls_pairwise": ls_pairwise_bound,
    "worst_case_pairwise": worst_case_pairwise_bound,
    "aggregate_tail": aggregate_tail_bound,
    "worst_case_aggregate": worst_case_aggregate_bound,
    "decomposition": decomposition_bound,
    "manipulation_gain": manipulation_gain_bound,
    "rt_threshold_fairness": rt_threshold_fairness_bound,
    "ls_threshold_fairness": ls_threshold_fairness_bound,
}


def compute_bound(name: str, **inputs) -> Number:
    """Evaluate a named closed-form bound (CLI entry point); inputs it
    rejects, or a value beyond a float's range, raise naming the bound."""
    try:
        fn = BOUND_REGISTRY[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown bound {name!r}; choose from {sorted(BOUND_REGISTRY)}"
        ) from None
    params = inspect.signature(fn).parameters
    if set(inputs) != set(params):
        raise InvalidParameterError(f"bound {name!r} takes the inputs {list(params)}")
    try:
        value = fn(**inputs)
        if math.isfinite(value):
            return value
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{exc}, in bound {name!r}") from None
    except OverflowError:  # an int or Fraction beyond a float's range
        pass
    raise InvalidParameterError(f"bound {name!r} overflows a float on these inputs")
