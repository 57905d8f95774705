"""Estimators, exact oracles, and closed-form bounds for every audited quantity.

Exact mode averages over the full classifier family and reports rationals
(integer counts over family-size denominators), so comparisons against
bounds like 1/k are free of float noise.  Monte Carlo mode samples
classifiers with the array draws of ``CountingRng(seed)``, vectorized
over trials, and reports standard errors.  Every report entry is built
here, by ``quantity()``, with its family's bound (the bias 1/k, and a
one-bucket family's variance the mean score variance plus 1/k) and the one
verdict rule: |value| <= bound + 4 * stderr, with stderr 0 for an exact value.
Every pair verdict, in both modes, is ``_excesses``'s: a gap count/size
against alpha * d + beta formed in integers from alpha, beta and d read
exactly (a float at its binary value), each excess an exact Fraction.

Every audited quantity reduces one ``PredictionTable`` over t = floor(score * k)
and the bucketing's ``vectors``, read once.  An exact table evaluates no
member: a point's row is t and its row of ``vectors``, and the affine layer
(a, c) is averaged in closed form.  On one bucket u - 1 is uniform on [k]
under every a; on two distinct buckets the two hash values hit each cell of
[k]^2 once (Carter & Wegman 1979).  So a point's members predict 1 at t of
every k values of c, a pair's split count is linear in the number S of the B
bucketing members that put it in one bucket, which ``collisions`` counts from
its two rows, and the variance sums k * min(t_i, t_j) - t_i t_j over the
points of each bucket of each listed member (``all_keys``), from sorted t.
Split counts are int64, so the one gate on an exact family is its size:
below 2**63 members, else ``FamilyTooLargeError``.  A Monte Carlo table,
filled a block of about ``PAIR_CHUNK_BYTES`` at a time, packs the bits
(a * e + c) mod k < t of ``Derandomizer.draw``: the keys of every bucketing
member, then every a, then every c.  The tail
check evaluates its own drawn batch at every point, in one call, and
``sample_classifier`` the one classifier of ``fairderand derandomize``:
every drawn classifier is evaluated by ``Derandomizer.predict`` only.

A point's mean needs no table: c is uniform on [k], so under every family
(RT, Pi and each LS family, SimHash included) a member predicts 1 at x with
probability exactly t/k.  ``family_mean``, ``aggregate_bias`` (exact in
both modes: stderr 0 in Monte Carlo mode), ``decomposition_check`` and
``fairderand strategic`` answer every point of a dataset at once from one
array of t (``threshold_counts``).

Every pair quantity reads ``pair_classes``, the one block loop over
pairs: it folds each block's distance keys and integer gaps (a table's
split counts, the scorer's numerator gaps, or none) straight into a
histogram of (distance, gap) classes, and keeps each pair's distance code
only where a caller reads them.  A table passes once per metric over
every pair, and once over the capped ``sample_pairs``, which holds only
its ``cap`` sorted keys (both in i * n + j order).  Reductions bisect
each distance's classes, ascending in count.
"""

from __future__ import annotations

import bisect
import inspect
import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .core import Dataset, StochasticScorer, threshold_counts
from .derandomize import Derandomizer
from .errors import EmptyPairSetError, FamilyTooLargeError, InvalidParameterError
from .hashing import BitBudget, BucketingFamily
from .metrics import PAIR_CHUNK_BYTES, Distance, Metric, PairSet, popcounts, rank_keys
from .rng import CountingRng

Number = Union[Fraction, float, int]

DEFAULT_PAIRS_CAP = 200_000
SAMPLE_BLOCK = 1 << 12  # pairs of draws of the pair stream per block
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
    loop of two successive ``uniform_ints(n)`` draws of ``CountingRng(seed)`` gives;
    and the seed (None when every pair is kept).  The ``cap`` keys hold the
    sorted distinct keys so far, then the next keys of the stream, of which
    the new ones are kept; a rest below a block reads a block of the stream,
    cut at its shortest prefix with enough new keys."""
    if n_points * (n_points - 1) // 2 <= cap:
        return PairSet(n_points), None
    rng, block, dtype = CountingRng(seed), min(cap, SAMPLE_BLOCK), np.min_scalar_type(n_points * n_points)
    accepted, size = np.empty(cap, dtype=dtype), 0  # accepted[:size]: sorted, distinct
    while size < cap:
        free, head = accepted[size:], accepted[:size]
        keys, f = free if free.size >= block else np.empty(block, dtype), 0
        while f < keys.size:  # the next keys of the stream, a block of draws at a time
            a, b = rng.uniform_ints(n_points, 2 * min(block, keys.size - f)).reshape(-1, 2).T
            drawn = (np.minimum(a, b) * n_points + np.maximum(a, b))[a != b]
            keys[f : f + drawn.size], f = drawn, f + drawn.size
            del a, b, drawn  # before the next block is drawn
        fresh = keys if keys is free else keys.copy()
        kept = _fresh(fresh, head)
        if kept > free.size:
            ends = range(1, keys.size + 1)
            fresh = keys[: bisect.bisect_left(ends, free.size, key=lambda e: _fresh(keys[:e].copy(), head)) + 1]
            kept = _fresh(fresh, head)
        free[:kept] = fresh[:kept]
        accepted[: size + kept].sort(kind="stable")  # merges the two sorted runs
        size += kept
    return PairSet(n_points, accepted), seed


def _fresh(keys: np.ndarray, head: np.ndarray) -> int:
    """Sorts the keys in place and moves to their front, a block at a time,
    the distinct ones absent from the sorted head; returns their number."""
    keys.sort()
    size = 0
    for s in range(0, keys.size, SAMPLE_BLOCK):
        block = keys[s : s + SAMPLE_BLOCK]
        keep = block != keys[s - 1 : s - 1 + block.size] if s else _run_firsts(block)
        if head.size:
            keep &= head[np.minimum(np.searchsorted(head, block), head.size - 1)] != block
        kept = block[keep]
        keys[size : size + kept.size] = kept
        size += kept.size
    return size


def _run_firsts(keys: np.ndarray) -> np.ndarray:
    """True at the first key of each run of equal keys."""
    return np.concatenate(([True], keys[1:] != keys[:-1]))[: keys.size]


# ---------------------------------------------------------------------------
# the oracle and the prediction table

@dataclass(frozen=True)
class PairClasses:
    """One pass over pairs, as arrays over the sorted distinct (distance, gap)
    classes: each one's code into ``values``, gap and number of pairs; and
    each pair's code if kept, in the pairs' order."""

    pair_seed: Optional[int]
    values: list[Distance]
    codes: Optional[np.ndarray]
    class_codes: np.ndarray
    class_counts: np.ndarray
    weights: np.ndarray


def pair_classes(data: Dataset, metric: Metric, pairs: PairSet, rows: Optional[np.ndarray] = None,
                 gap: Optional[Callable] = None, size: int = 0, codes: bool = False) -> PairClasses:
    """The one pass over pairs: a block at a time, it histograms the keys
    distance key * (size + 1) + gap, with gap(ra, rb) the integer gaps in
    [0, size] of the block's pairs at their rows ra, rb of ``rows`` (0
    without a gap), and keeps each pair's distance code when asked.  Gaps
    are Python ints from size 2**63 on."""
    (key, points, bound, decode), width = metric._pair_keys(data, len(pairs)), size + 1
    kept = np.empty(len(pairs), np.min_scalar_type(max(bound - 1, 0))) if codes else None
    dtype = np.min_scalar_type(max(bound, 1) * width)  # object past 2**64

    def blocks(s=0):
        for pa, pb, *r in pairs.blocks(points, *([] if gap is None else [rows])):
            keys = key(pa, pb)
            if kept is not None:
                kept[s : s + keys.size] = keys
            s += keys.size
            yield keys.astype(dtype) * width + (gap(*r).astype(dtype) if r else 0)

    keys, weights = _histogram(blocks(), dtype)
    keys, counts = (keys // width).astype(np.int64), (keys % width).astype(np.int64 if size < 2**63 else object)
    distinct = keys[firsts := _run_firsts(keys)]
    kept = None if kept is None else rank_keys(kept, distinct)
    return PairClasses(None, decode(distinct), kept, np.cumsum(firsts) - 1, counts, weights)


@dataclass(frozen=True, eq=False)
class PredictionTable:
    """What the pair and aggregate quantities read of f_h(x) for every
    family member h (exact) or every classifier of one seeded batch (Monte
    Carlo), at every dataset point x.  Exact: ``rows[r]`` is t_r, then row
    r of ``vectors``; no prediction is held.  Monte Carlo: ``rows[r]`` is
    the prediction row of point r, in whole uint64 words, and ``sums``
    counts the points each trial predicts 1.  The scores are ``numerators`` over ``den``."""

    derand: Derandomizer
    dataset: Dataset
    cfg: EstimatorConfig
    numerators: np.ndarray
    den: int
    t: np.ndarray  # floor(score * k) per point
    size: int  # members or trials
    rows: np.ndarray
    vectors: np.ndarray  # derand.bucketing.vectors(dataset)
    sums: Optional[np.ndarray]  # in the smallest unsigned dtype that holds len(dataset)
    _passes: dict = field(default_factory=dict, init=False, repr=False)  # (metric, capped): classes

    def _split_rows(self) -> np.ndarray:
        return self.rows if self.cfg.exact else self.rows.view(np.uint64)

    def _splits(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Members (or trials) that split each pair at its rows a, b of
        ``_split_rows``, as int64.  Monte Carlo: popcounts of XORed rows.
        Exact: when S of the B bucketing members put the pair in one bucket,
        S * a_range * |t_i - t_j| + (B - S) * (t_i (k - t_j) + t_j (k - t_i))."""
        if not self.cfg.exact:
            return popcounts(a ^ b)
        k, a_range, members = self.derand.k, self.derand.pi_family.a_range, self.size // self.derand.pi_family.size
        ta, tb = a[..., 0].astype(np.int64), b[..., 0].astype(np.int64)  # int64: each term is at most B * a_range * k
        same = self.derand.bucketing.collisions(a[..., 1:], b[..., 1:])
        if a_range == 1:  # one bucket, so S = B; t_i * (k - t_j) may pass 2**63 and is not formed
            return same * abs(ta - tb)
        cross = ta * (k - tb) + tb * (k - ta)
        return same * (a_range * abs(ta - tb) - cross) + members * cross

    def pair_classes(self, metric: Metric, capped: bool = False) -> PairClasses:
        """The (distance, split count) classes of every pair (or of the
        capped ``sample_pairs``) under the metric, from one cached pass per
        pair set; below the cap both read the pass over every pair."""
        n = len(self.dataset)
        capped = capped and n * (n - 1) // 2 > self.cfg.pairs_cap
        if (metric, capped) not in self._passes:
            pairs, seed = sample_pairs(n, self.cfg.pairs_cap, self.cfg.seed) if capped else (PairSet(n), None)
            classes = pair_classes(self.dataset, metric, pairs, self._split_rows(), self._splits, self.size,
                                   codes=not capped)
            self._passes[metric, capped] = replace(classes, pair_seed=seed)
        return self._passes[metric, capped]


def _histogram(blocks: Iterator[np.ndarray], dtype) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct keys of the blocks and their numbers: buffered to
    PAIR_CHUNK_BYTES // 8 keys, sorted, counted by runs, then merged in."""
    keys, weights, pending, buffered = np.zeros(0, dtype), np.zeros(0, np.int64), [], 0
    for block in itertools.chain(blocks, [None]):  # None: the end, where the buffer merges too
        if block is not None:
            pending.append(block)
            buffered += block.size
            if buffered < PAIR_CHUNK_BYTES // 8:
                continue
        new = np.concatenate([keys[:0], *pending])
        new.sort(kind="stable" if new.itemsize == 1 else None)  # one-byte keys: numpy's radix sort, ~20x its quicksort
        starts = np.flatnonzero(_run_firsts(new))
        new, counted = new[starts], np.diff(starts, append=new.size)
        at = np.searchsorted(keys, new)
        found = at < keys.size
        found[found] = keys[at[found]] == new[found]
        weights[at[found]] += counted[found]
        keys, weights = np.insert(keys, at[~found], new[~found]), np.insert(weights, at[~found], counted[~found])
        pending, buffered = [], 0
    return keys, weights


def prediction_table(
    derand: Derandomizer, dataset: Dataset, cfg: EstimatorConfig
) -> PredictionTable:
    """The table of the whole family (exact) or of one batch seeded with
    cfg.seed (Monte Carlo): exact mode stacks t with the vectors, each
    entry below k (a bucket id is below ``n_buckets`` <= k), and Monte Carlo
    mode evaluates the batch one block of points at a time."""
    numerators, den = derand.scorer.scores(dataset)
    t = threshold_counts(numerators, den, derand.k)
    x = derand.bucketing.vectors(dataset)
    if cfg.exact:
        size = derand.family_size
        if size >= 2**63:
            raise FamilyTooLargeError(f"{size} members: the closed form counts split members in int64, below 2**63")
        rows = np.column_stack((t, x)).astype(np.min_scalar_type(derand.k))
        return PredictionTable(derand, dataset, cfg, numerators, den, t, size, rows, x, None)
    keys, a, c, _ = derand.draw(CountingRng(cfg.seed), cfg.trials)
    rows = np.zeros((len(dataset), (cfg.trials + 63) // 64 * 8), dtype=np.uint8)
    sums = np.zeros(cfg.trials, dtype=np.min_scalar_type(len(dataset)))  # counts <= len(dataset)
    step = max(1, PAIR_CHUNK_BYTES // (8 * cfg.trials))  # forms int64 residues
    for s in range(0, len(dataset), step):
        block = slice(s, s + step)
        bits = derand.predict(keys, a, c, t[block], x[block])
        rows[block, : (cfg.trials + 7) // 8] = np.packbits(bits, axis=1)
        sums += np.add.reduce(bits, axis=0, dtype=sums.dtype)
    return PredictionTable(derand, dataset, cfg, numerators, den, t, cfg.trials, rows, x, sums)


def sample_classifier(derand: Derandomizer, dataset: Dataset, rng: CountingRng) -> tuple[dict, BitBudget, np.ndarray]:
    """The classifier of ``derand.draw(rng, 1)``: its report entry, the bits
    of its draw, and its 0/1 prediction at every point, evaluated as the
    Monte Carlo table and the tail check evaluate theirs, the data read first."""
    t, x = threshold_counts(*derand.scorer.scores(dataset), derand.k), derand.bucketing.vectors(dataset)
    keys, a, c, budget = derand.draw(rng, 1)
    bits = derand.predict(keys, a, c, t, x)
    params = {**derand.pi_family.params(a[0], c[0]), **derand.bucketing.params(keys[0])}
    return params, budget, bits[:, 0].astype(np.uint8)


def _excesses(size: int, classes: PairClasses, alpha: Number, beta: Number) -> tuple[int, Optional[Fraction]]:
    """(pairs whose gap count/size exceeds alpha * d + beta, the largest excess
    gap - (alpha * d + beta) or None over no class), in integers: alpha, beta
    and each d (a float at its binary value) read by ``as_integer_ratio`` give
    a budget num/den, a class counts when count * den > num * size (a bisection
    of each distance's classes, ascending in count), and the excess of its
    largest count is (count * den - num * size) / (size * den)."""
    try:
        (an, ad), (bn, bd) = alpha.as_integer_ratio(), beta.as_integer_ratio()
    except (OverflowError, ValueError):  # an infinity or a NaN
        raise InvalidParameterError("alpha and beta must be finite") from None
    counts, weights = classes.class_counts, classes.weights
    bounds = np.searchsorted(classes.class_codes, np.arange(len(classes.values) + 1))  # each distance's first class
    violations, top = 0, None
    for start, end, d in zip(bounds[:-1], bounds[1:], classes.values):
        dn, dd = d.as_integer_ratio()
        num, den = an * dn * bd + bn * ad * dd, ad * dd * bd
        over = bisect.bisect_left(range(start, end), True, key=lambda c: int(counts[c]) * den > num * size) + start
        violations += int(weights[over:end].sum())
        excess = (int(counts[end - 1]) * den - num * size, size * den)
        if top is None or excess[0] * top[1] > top[0] * excess[1]:
            top = excess
    return violations, None if top is None else Fraction(*top)


def _close_pairs(table: PredictionTable, metric: Metric, tau: Number) -> tuple[PairClasses, np.ndarray, np.ndarray]:
    """The pass over every pair, and (i, j) of the pairs within distance
    tau, from its codes in np.triu_indices order, read a block at a time:
    each close position p lies in the row i of the last row start <= p.
    With no pair within tau there is nothing to check, and it raises."""
    classes = table.pair_classes(metric)
    codes, step = classes.codes, PAIR_CHUNK_BYTES // 8
    close = np.array([d <= tau for d in classes.values], dtype=bool)
    p = np.concatenate([np.zeros(0, np.int64),
                        *(np.flatnonzero(close[codes[s : s + step]]) + s for s in range(0, codes.size, step))])
    starts = PairSet(len(table.dataset)).row_starts()
    i = np.searchsorted(starts, p, side="right") - 1
    if i.size == 0:
        raise EmptyPairSetError(f"no pairs within distance {tau}")
    return classes, i, p - starts[i] + i + 1


# ---------------------------------------------------------------------------
# bias and variance

def aggregate_bias(table: PredictionTable) -> dict:
    """Dataset average of the pointwise bias t/k - score, against the bias budget 1/k."""
    n, k = len(table.dataset), table.derand.k
    value = (Fraction(int(table.t.sum()), k) - Fraction(sum(table.numerators.tolist()), table.den)) / n
    return quantity(value, None if table.cfg.exact else 0.0, bias_bound(k), "family bias budget 1/k")


def aggregate_variance(table: PredictionTable) -> dict:
    """Variance, across family members, of the member's dataset-mean
    prediction.  Exact: E[f_i f_j] is min(t_i, t_j)/k on one bucket and
    t_i t_j / k^2 on two, so the variance is the sum of
    k min(t_i, t_j) - t_i t_j over the B bucketing members and the ordered
    pairs (i, j) in one of its buckets, over B k^2 n^2.  A one-bucket
    family (the shared threshold, whichever scheme built it) is set against
    the mean score variance plus 1/k."""
    n, k, den = len(table.dataset), table.derand.k, table.den
    if table.cfg.exact:
        members, bucketing = table.size // table.derand.pi_family.size, table.derand.bucketing
        value, stderr = Fraction(_same_bucket_sum(bucketing, table.vectors, table.t, k), members * k * k * n * n), None
    elif table.size < 2:
        raise InvalidParameterError("an mc audit needs at least 2 trials: its variance divides by trials - 1")
    else:
        mu = table.sums / n
        value, stderr = float(mu.var(ddof=1)), _variance_stderr(mu)
    if table.derand.bucketing.n_buckets > 1:
        return quantity(value, stderr)
    mean_fvar = Fraction(sum(p * (den - p) for p in table.numerators.tolist()), den * den * n)
    bound = float(rt_variance_bound(mean_fvar)) + float(bias_bound(k))
    return quantity(value, stderr, bound, "mean score variance budget (grid slack 1/k)")


def _same_bucket_sum(bucketing: BucketingFamily, x: np.ndarray, ts: np.ndarray, k: int) -> int:
    """The exact variance numerator, a block of the listed members at a time,
    embedded at rows x of ``vectors``: sorted by (bucket, t), each bucket is a
    run of ascending t, in which t_i is the min of its pairs with the later points."""
    keys, total, step = bucketing.all_keys(), 0, max(1, PAIR_CHUNK_BYTES // (8 * len(ts)))
    dtype = np.int64 if (step * len(ts)) ** 2 * k < 2**63 else object  # ends @ sums < (step * n)^2 * k
    for s in range(0, len(keys), step):
        # bucket * (k + 1) + t fits uint64: over two or more buckets k * k < 2**63, and over one the bucket is 0
        codes = bucketing.embed(keys[s : s + step], x).T.astype(np.uint64) * np.uint64(k + 1) + ts.astype(np.uint64)
        bucket, t = np.divmod(np.sort(codes, axis=1), np.uint64(k + 1))
        firsts = np.ones(t.shape, dtype=bool)  # each member's runs start afresh
        firsts[:, 1:] = bucket[:, 1:] != bucket[:, :-1]
        starts, t = np.flatnonzero(firsts), t.reshape(-1).astype(dtype)
        sums, ends = np.add.reduceat(t, starts), np.append(starts[1:], t.size)
        mins = 2 * int(ends @ sums - np.arange(t.size) @ t) - int(t.sum())  # of min(t_i, t_j) over (i, j)
        total += k * mins - sum(v * v for v in sums.tolist())
    return total


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
    _check_fairness_params(alpha, beta)
    classes = table.pair_classes(metric, capped=True)
    if classes.weights.size == 0:
        raise EmptyPairSetError(f"no pairs to check among {len(table.dataset)} point(s)")
    violations, worst_excess = _excesses(table.size, classes, alpha, beta)

    report = {"pairs_checked": quantity(int(classes.weights.sum()))}
    if classes.pair_seed is not None:
        report["pair_sample_seed"] = quantity(classes.pair_seed)
    report["fairness_violations"] = quantity(violations, bound=0, bound_source="pairwise fairness definition")
    report["worst_excess"] = quantity(worst_excess)
    return report


def sampled_aggregate_fairness(
    table: PredictionTable,
    metric: Metric,
    tau: Number,
    n_classifiers: int,
    rng: CountingRng,
) -> list[Fraction]:
    """Split fraction of tau-close pairs for each of the n classifiers of
    ``derand.draw(rng, n)``, one batch evaluated at every point of the
    table in one call."""
    _, i, j = _close_pairs(table, metric, tau)
    keys, a, c, _ = table.derand.draw(rng, n_classifiers)
    bits = table.derand.predict(keys, a, c, table.t, table.vectors)
    return [Fraction(int((column[i] != column[j]).sum()), i.size) for column in bits.T]


def aggregate_fairness_tail_check(
    table: PredictionTable,
    metric: Metric,
    alpha: Number,
    tau: Number,
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
    violating = sum(r > bound for r in rhos)  # exact: a Fraction against the float
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
    prediction gap against tau; for a locality-sensitive family with
    k >= 4/sigma, also against the preserved guarantee sigma + tau, and for
    a one-bucket family (the shared threshold) against the 1/k grid one.
    With no pair within sigma there is nothing to check, and it raises."""
    if not (0 < sigma < 1 and 0 < tau < 1):
        raise InvalidParameterError("sigma and tau must lie in (0, 1)")
    classes, i, j = _close_pairs(table, metric, sigma)
    n_diff = int(classes.class_counts[np.array([d <= sigma for d in classes.values])[classes.class_codes]].max())
    # max() keeps its first maximal argument: an int 0 when no pair differs
    worst: Number = max(0, Fraction(n_diff, table.size))
    scorer_worst: Number = max(0, Fraction(int(abs(table.numerators[i] - table.numerators[j]).max()), table.den))

    report = {"pairs_within_sigma": quantity(int(i.size)), "scorer_max_gap": quantity(scorer_worst)}
    bounds = [("max_gap", tau, "threshold fairness target")]
    derand = table.derand
    if derand.bucketing.locality_sensitive and derand.k >= 4 / sigma:
        bounds.append(("max_gap_vs_preserved_guarantee", ls_threshold_fairness_bound(sigma, tau),
                       "threshold fairness preservation (k >= 4/sigma)"))
    if derand.bucketing.n_buckets == 1:
        bounds.append(("max_gap_vs_grid_guarantee", rt_threshold_fairness_bound(tau, derand.k),
                       "threshold fairness preservation (1/k grid)"))
    for name, bound, source in bounds:
        report[name] = quantity(worst, bound=bound, bound_source=source)
    return report


# ---------------------------------------------------------------------------
# per point: the family mean and the bias-variance decomposition

def family_mean(derand: Derandomizer, data: Dataset) -> list[Fraction]:
    """The share of the family that predicts 1 at each point: t/k, with
    t = floor(score * k), under every family."""
    return [Fraction(t, derand.k) for t in threshold_counts(*derand.scorer.scores(data), derand.k).tolist()]


def decomposition_check(derand: Derandomizer, data: Dataset) -> list[dict]:
    """The error decomposition at each point, exact and drawing nothing: a
    member predicts 1 with probability p = ``family_mean``, so its expected
    gap to a Bernoulli realization of the score s is p + s - 2ps, which for
    0/1 variables is the identity (p - s)^2 + s(1 - s) + p(1 - p).  The
    bound is |bias| + 2 * (score variance + family variance)^(2/3)."""
    numerators, den = derand.scorer.scores(data)
    reports = []
    for n, t in zip(numerators.tolist(), threshold_counts(numerators, den, derand.k).tolist()):
        score, p = Fraction(n, den), Fraction(t, derand.k)
        bias, var_bern, var_family = p - score, score * (1 - score), p * (1 - p)
        rhs = decomposition_bound(abs(bias), var_bern, var_family)
        reports.append({
            "bias_abs": quantity(abs(bias)),
            "score_variance": quantity(var_bern),
            "family_variance": quantity(var_family),
            "expected_gap": quantity(bias * bias + var_bern + var_family, None, rhs, "bias-variance decomposition"),
        })
    return reports


# ---------------------------------------------------------------------------
# empirical fairness curve and certification

def empirical_fairness_curve(
    table: PredictionTable, metric: Metric, alphas: Sequence[float]
) -> list[tuple[float, float]]:
    """For each slope a on the grid, the mean residual additive unfairness
    b(a) = mean over the table's capped pairs of max(gap - a*d, 0), gap being
    the family's expected prediction gap; the classes add up exactly (fsum)."""
    classes = table.pair_classes(metric, capped=True)
    if classes.weights.size == 0:
        raise InvalidParameterError("need at least 2 points")
    g, n = classes.class_counts / table.size, int(classes.weights.sum())
    d = np.array([float(v) for v in classes.values])[classes.class_codes]
    return [(float(a), math.fsum(classes.weights * np.maximum(g - float(a) * d, 0.0)) / n) for a in alphas]


def scorer_beta(scorer: StochasticScorer, dataset: Dataset, metric: Metric, alpha: Number) -> Number:
    """Smallest beta for which the scorer is (alpha, beta)-fair on the
    dataset: max over pairs of (|score gap| - alpha*d)+, from the pass over
    every pair's (distance, |numerator gap|) classes, gaps over den."""
    numerators, den = scorer.scores(dataset)
    classes = pair_classes(dataset, metric, PairSet(len(dataset)), numerators, lambda a, b: abs(a - b), den)
    # max() keeps its first maximal argument: an int 0 when no excess is positive
    return max(0, _excesses(den, classes, alpha, 0)[1] or 0)


def family_beta(table: PredictionTable, metric: Metric, alpha: Number) -> Number:
    """Smallest beta for which the family is (alpha, beta)-fair on the
    dataset pairs, from exact (or estimated) pairwise gaps."""
    # max() keeps its first maximal argument: an int 0 when no excess is positive
    return max(0, _excesses(table.size, table.pair_classes(metric), alpha, 0)[1] or 0)


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
