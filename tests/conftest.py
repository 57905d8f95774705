"""Shared builders, independent brute-force oracles and scalar references.

Datasets are built by ``dataset_of`` from an id -> feature row mapping; a
single point is a one-row dataset (``point_of`` takes one row of a
dataset, ``each_point`` lists them, ``joined`` puts points together).  The
oracles evaluate every classifier of a family one point at a time,
through this module's own ``ReferenceClassifier``, written from the
formula 1 iff ((a * e + c) mod k) + 1 <= floor(score * k) with the score
from ``reference_score`` (each scorer's scalar form), and its bucketing
members (``reference_member``), written from each family's definition,
each giving a point's integer bucket e; a fixed bucketing's member
numbers buckets by its own first-seen map.  The library evaluates
classifiers only as arrays, and its exact closed form, which enumerates
only the bucketing members and averages the affine layer, must agree with
them exactly.  The references redo the library's array draws one scalar
draw at a time (``draw_bits``, ``uniform_int``, ``normal_pair``), its
one-pass ``scorer_beta`` pair by pair, and its columnar CSV loader row by
row; ``reference_excesses`` keeps the per-class list form of the
verdicts' reduction over pair classes.  ``reference_distance`` is each
metric's distance written from its definition, one pair of points at a
time, with each float sum a ``math.fsum`` over Python floats; the library
evaluates metrics only over blocks of pairs.
"""

import bisect
import csv
import itertools
import math
import random
import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from fairderand import (
    AffineScorer,
    Angular,
    BitBudget,
    BitSamplingFamily,
    ConstantScorer,
    Dataset,
    JaccardDistance,
    MinHashFamily,
    NormalizedHamming,
    ScaledEuclidean,
    SimHashFamily,
    TabularScorer,
)
from fairderand.core import as_score
from fairderand.errors import (
    DimensionMismatchError,
    EmptyPairSetError,
    GridTooCoarseError,
    InvalidParameterError,
    NotBinaryError,
    UnknownBucketError,
    UnknownPointError,
    ZeroVectorError,
)
from fairderand.hashing import FixedFamily
from fairderand.measure import decomposition_bound, pair_classes, prediction_table, sample_pairs
from fairderand.metrics import PairSet
from fairderand.rng import _GOLDEN, _MASK64, _mix64


def dataset_of(rows: dict, fairness=None, labels=None) -> Dataset:
    """The dataset of the id -> feature row items of rows, in order, with
    fairness rows and labels listed in the same order."""
    return Dataset(list(rows), [tuple(row) for row in rows.values()], fairness, labels)


def point_of(data: Dataset, r: int) -> Dataset:
    """Point r of the dataset as a one-row dataset."""
    fairness = None if data.fairness is None else data.fairness[r : r + 1]
    return Dataset(data.ids[r : r + 1], data.features[r : r + 1], fairness, data.labels[r : r + 1])


def each_point(data: Dataset) -> list[Dataset]:
    """Each point of the dataset as a one-row dataset, in order."""
    return [point_of(data, r) for r in range(len(data))]


def joined(*parts: Dataset) -> Dataset:
    """The datasets' points, in order, as one dataset built from their rows."""
    def rows(column):
        return [row for part in parts for row in column(part)]

    fairness = None if parts[0].fairness is None else rows(lambda p: p.fairness.tolist())
    return Dataset(rows(lambda p: p.ids), rows(lambda p: p.features.tolist()), fairness, rows(lambda p: p.labels))


def vector_of(point: Dataset) -> tuple:
    """The fairness vector of a one-point dataset, as Python floats."""
    return tuple(point.fairness_vectors[0].tolist())


def reference_score(scorer, point: Dataset) -> Fraction:
    """The score of a one-point dataset, from each scorer's definition: the
    table's entry for the id, clamp(fsum(w * x, b), 0, 1) read through its
    shortest decimal, or the constant."""
    if isinstance(scorer, TabularScorer):
        if point.ids[0] not in scorer.ids:
            raise UnknownPointError(f"no score for point {point.ids[0]!r}")
        return Fraction(int(scorer.numerators[scorer.ids.index(point.ids[0])]), scorer.den)
    if isinstance(scorer, AffineScorer):
        x = point.features[0].tolist()
        if len(x) != len(scorer.weights):
            raise DimensionMismatchError(f"scorer expects {len(scorer.weights)} features, got {len(x)}")
        raw = math.fsum([*(w * v for w, v in zip(scorer.weights, x)), scorer.bias])  # one rounding
        return as_score(min(1.0, max(0.0, raw)))
    assert isinstance(scorer, ConstantScorer)
    return scorer.value


def score_list(scorer, data: Dataset) -> list[Fraction]:
    """Each point's score, from the scorer's one array of numerators."""
    numerators, den = scorer.scores(data)
    return [Fraction(int(n), den) for n in numerators.tolist()]


def reference_threshold_count(score: Fraction, k: int) -> int:
    """Number of grid thresholds u in {1..k} with score >= u/k: floor(score * k)."""
    return (score.numerator * k) // score.denominator


def reference_family_mean(derand, point: Dataset) -> Fraction:
    """t/k at one point, with t = floor(score * k) from its scalar score."""
    return Fraction(reference_threshold_count(reference_score(derand.scorer, point), derand.k), derand.k)


def reference_decomposition(derand, point: Dataset) -> dict:
    """The error decomposition at one point, from its scalar score s and
    family mean p: |p - s|, s(1 - s), p(1 - p), and (p - s)^2 + s(1 - s) +
    p(1 - p) against |bias| + 2 * (s(1 - s) + p(1 - p))^(2/3)."""
    score, p = reference_score(derand.scorer, point), reference_family_mean(derand, point)
    bias, var_bern, var_family = p - score, score * (1 - score), p * (1 - p)
    rhs = decomposition_bound(abs(bias), var_bern, var_family)
    gap = bias * bias + var_bern + var_family
    return {
        "bias_abs": {"value": abs(bias)},
        "score_variance": {"value": var_bern},
        "family_variance": {"value": var_family},
        "expected_gap": {"value": gap, "bound": rhs, "satisfied": gap <= rhs,
                         "bound_source": "bias-variance decomposition"},
    }


def random_binary_dataset(rng: random.Random, n_points: int, dim: int) -> Dataset:
    """Distinct binary points, none all-zero (min-wise hashing needs
    non-empty sets)."""
    if n_points > 2**dim - 1:
        raise ValueError(f"only {2**dim - 1} distinct non-zero points in dimension {dim}")
    rows = {}
    seen = set()
    while len(rows) < n_points:
        feats = tuple(float(rng.randint(0, 1)) for _ in range(dim))
        if feats in seen or not any(feats):
            continue
        seen.add(feats)
        rows[f"p{len(rows):03d}"] = feats
    return dataset_of(rows)


def random_real_dataset(rng: random.Random, n_points: int, dim: int) -> Dataset:
    return dataset_of({f"p{i:03d}": tuple(rng.uniform(-1, 1) for _ in range(dim)) for i in range(n_points)})


def random_scorer(rng: random.Random, dataset: Dataset, denominator: int = 997) -> TabularScorer:
    """Tabular scorer with exact rational scores i/denominator."""
    return TabularScorer(
        {p: Fraction(rng.randint(0, denominator), denominator) for p in dataset.ids}
    )


BRUTE_FORCE_MAX = 10**6  # classifiers the point-by-point oracles will evaluate


_NUMBERINGS = weakref.WeakKeyDictionary()  # fixed family -> {bucket: number}


@dataclass(frozen=True)
class Shared:
    """The one member of a fixed bucketing: the bucketer's bucket of the
    point alone, numbered in the order this module first meets the buckets
    of the family, which raises on any bucket it was not built on.  Every
    one-to-one numbering of the buckets gives the same family averages (the
    affine layer is pairwise independent over any of them); meeting them in
    the order of the dataset the family was built on gives the library's."""

    family: object

    def bucket(self, point):
        bucket = self.family.bucketer.buckets(point)[0]
        numbering = _NUMBERINGS.setdefault(self.family, {})
        if bucket not in numbering:
            if bucket not in self.family.index:
                why = "the family embeds only the buckets it was built on (for Pi, those of the input dataset's points)"
                raise UnknownBucketError(f"no hash value for bucket {bucket!r}: {why}")
            numbering[bucket] = len(numbering)
        return numbering[bucket]


@dataclass(frozen=True)
class Coordinate:
    """Bit sampling: the 0/1 value of one coordinate."""

    index: int

    def bucket(self, point):
        vector = vector_of(point)
        if self.index >= len(vector):
            raise DimensionMismatchError(f"bit sampling reads coordinate {self.index} of a {len(vector)}-dimensional point")
        if vector[self.index] not in (0.0, 1.0):
            raise NotBinaryError("bit sampling requires 0/1 features")
        return int(vector[self.index])


@dataclass(frozen=True)
class Permutation:
    """Min-wise hashing: the element of the set of minimum rank[element]."""

    ranks: tuple

    def bucket(self, point):
        vector = vector_of(point)
        if any(v not in (0.0, 1.0) for v in vector):
            raise NotBinaryError("set-valued features must be 0/1")
        support = [e for e, v in enumerate(vector) if v == 1.0]
        if not support:
            raise NotBinaryError("min-wise hashing is undefined on the empty set")
        if support[-1] >= len(self.ranks):
            raise DimensionMismatchError(f"set element {support[-1]} is outside the universe of {len(self.ranks)}")
        return min(support, key=lambda e: self.ranks[e])


@dataclass(frozen=True)
class Hyperplane:
    """Random-hyperplane signs: 1 on the side of the normal, the plane included."""

    normal: tuple

    def bucket(self, point):
        vector = vector_of(point)
        if len(vector) != len(self.normal):
            raise DimensionMismatchError("dimension mismatch in hyperplane hash")
        return 1 if sum(a * b for a, b in zip(self.normal, vector)) >= 0.0 else 0


def reference_member(family, key):
    """The bucketing member that a key of the family stands for."""
    if isinstance(family, FixedFamily):
        return Shared(family)
    if isinstance(family, BitSamplingFamily):
        return Coordinate(int(key))
    values = tuple(np.asarray(key).tolist())
    return Permutation(values) if isinstance(family, MinHashFamily) else Hyperplane(values)


@dataclass(frozen=True)
class ReferenceClassifier:
    """One classifier of a derandomized family, one point at a time: 1 iff
    u = ((a * e + c) mod k) + 1 <= floor(score * k), with e the point's
    integer bucket under the member."""

    derand: object
    member: object
    a: int
    c: int

    def predict(self, point) -> int:
        k = self.derand.k
        u = (self.a * self.member.bucket(point) + self.c) % k + 1
        return 1 if u <= math.floor(reference_score(self.derand.scorer, point) * k) else 0


def enumerate_members(derand) -> list:
    """The full uniform family as classifiers: bucketing-member major, then
    a, then c; a family with no finite list raises NotEnumerableError."""
    assert derand.family_size <= BRUTE_FORCE_MAX, f"{derand.family_size} classifiers is too many to brute-force"
    return [
        ReferenceClassifier(derand, reference_member(derand.bucketing, key), a, c)
        for key in derand.bucketing.all_keys()
        for a in range(derand.pi_family.a_range)
        for c in range(derand.k)
    ]


def select_pairs(n_points: int, cap: int, seed: int) -> tuple:
    """The index arrays (i, j) of the pairs of ``sample_pairs``, and its seed."""
    pairs, seed = sample_pairs(n_points, cap, seed)
    return (*(np.triu_indices(n_points, 1) if pairs.keys is None else np.divmod(pairs.keys, n_points)), seed)


def pairs_of(n_points: int, i, j) -> PairSet:
    """The pairs (i[p], j[p]) of n points as a PairSet."""
    return PairSet(n_points, np.asarray(i, dtype=np.int64) * n_points + np.asarray(j, dtype=np.int64))


def binary_support(vector: tuple[float, ...]) -> frozenset[int]:
    """Indices of the 1-entries of a {0,1}-valued vector."""
    support = set()
    for i, value in enumerate(vector):
        if value == 1.0:
            support.add(i)
        elif value != 0.0:
            raise NotBinaryError("set-valued features must be 0/1")
    return frozenset(support)


def reference_distance(metric, x: Dataset, y: Dataset):
    """The metric's distance between the fairness vectors of the points x
    and y, from its definition: a Fraction for Hamming and Jaccard, a float
    for angular and scaled Euclidean distance."""
    u, v = vector_of(x), vector_of(y)
    if len(u) != len(v):
        raise DimensionMismatchError(f"points {x.ids[0]!r} and {y.ids[0]!r} have dimensions {len(u)} and {len(v)}")
    if isinstance(metric, NormalizedHamming):
        if len(u) != metric.n:
            raise DimensionMismatchError(f"expected dimension {metric.n}, got {len(u)}")
        return Fraction(sum(a != b for a, b in zip(u, v)), metric.n)
    if isinstance(metric, JaccardDistance):
        a, b = binary_support(u), binary_support(v)
        union = a | b
        return Fraction(1) - Fraction(len(a & b), len(union)) if union else Fraction(0)
    if isinstance(metric, Angular):
        nu = math.sqrt(math.fsum(a * a for a in u))
        nv = math.sqrt(math.fsum(b * b for b in v))
        if nu == 0.0 or nv == 0.0:
            raise ZeroVectorError("angular distance undefined on the zero vector")
        if u == v:
            return 0.0  # the identity axiom, exact despite acos noise
        cos = math.fsum(a * b for a, b in zip(u, v)) / (nu * nv)
        return math.acos(min(1.0, max(-1.0, cos))) / math.pi
    if isinstance(metric, ScaledEuclidean):
        # squares as products: libm's pow, behind x ** 2, is not always correctly rounded
        norm = math.sqrt(math.fsum((a - b) * (a - b) for a, b in zip(u, v)))
        return min(norm / metric.scale, 1.0)
    raise TypeError(f"no reference distance for {type(metric).__name__}")


def draw_bits(rng, n: int) -> int:
    """A uniform integer in [0, 2^n) from the next n bits of the stream of
    a CountingRng, consuming exactly n: the scalar draw under the others."""
    if n < 0:
        raise InvalidParameterError("bit count must be non-negative")
    end = rng.bits_consumed + n
    first, last = rng.bits_consumed >> 6, (end + 63) >> 6
    value = 0
    for w in range(first, last):
        value = value << 64 | _mix64((rng.seed + (w + 1) * _GOLDEN) & _MASK64)
    rng.bits_consumed = end
    return (value >> (last * 64 - end)) & ((1 << n) - 1)


def uniform_int(rng, n: int) -> int:
    """Uniform integer in [0, n) by rejection from ceil(log2 n)-bit draws
    of ``draw_bits``: the scalar draw that ``uniform_ints`` repeats."""
    if n <= 0:
        raise InvalidParameterError("range must be positive")
    m = (n - 1).bit_length()  # 0 for n = 1, which draws nothing
    while True:
        v = draw_bits(rng, m)
        if v < n:
            return v


def normal_pair(rng) -> tuple[float, float]:
    """Two independent standard normals from 128 counted bits (Box-Muller):
    the scalar draw that ``normals`` repeats."""
    u1 = (draw_bits(rng, 64) + 1) / 2.0**64  # in (0, 1], log stays finite
    u2 = draw_bits(rng, 64) / 2.0**64
    r = math.sqrt(-2.0 * math.log(u1))
    theta = 2.0 * math.pi * u2
    return r * math.cos(theta), r * math.sin(theta)


def scalar_member(family, rng):
    """One bucketing member by scalar draws: Fisher-Yates for min-wise
    hashing, Box-Muller pairs scaled to unit length for hyperplanes, a
    uniform coordinate for bit sampling, and nothing for a fixed bucketing."""
    if isinstance(family, FixedFamily):
        return Shared(family)
    if isinstance(family, BitSamplingFamily):
        return Coordinate(uniform_int(rng, family.n))
    if isinstance(family, MinHashFamily):
        items = list(range(family.universe_size))
        for i in range(family.universe_size - 1, 0, -1):
            j = uniform_int(rng, i + 1)
            items[i], items[j] = items[j], items[i]
        return Permutation(tuple(items))
    assert isinstance(family, SimHashFamily)
    values = [v for _ in range((family.dim + 1) // 2) for v in normal_pair(rng)][: family.dim]
    norm = math.sqrt(sum(v * v for v in values))
    return Hyperplane(tuple(v / norm for v in values))


def scalar_sample(derand, rng) -> tuple:
    """The reference for ``Derandomizer.draw(rng, 1)``: the bucketing
    member, then a, then c, by scalar draws, as a classifier, with the bits
    of each."""
    start = rng.bits_consumed
    member = scalar_member(derand.bucketing, rng)
    lsh_bits = rng.bits_consumed - start
    a, c = uniform_int(rng, derand.pi_family.a_range), uniform_int(rng, derand.k)
    budget = BitBudget(rng.bits_consumed - start - lsh_bits, lsh_bits)
    return ReferenceClassifier(derand, member, a, c), budget


def brute_mean(derand, point) -> Fraction:
    members = enumerate_members(derand)
    return Fraction(sum(c.predict(point) for c in members), len(members))


def brute_collision(family, x, y) -> Fraction:
    """Collision probability of a uniform bucketing member, by full
    enumeration."""
    members = [reference_member(family, key) for key in family.all_keys()]
    return Fraction(sum(m.bucket(x) == m.bucket(y) for m in members), len(members))


def brute_pairwise(derand, x, y) -> Fraction:
    members = enumerate_members(derand)
    return Fraction(
        sum(abs(c.predict(x) - c.predict(y)) for c in members), len(members)
    )


def brute_aggregate_variance(derand, dataset) -> Fraction:
    members, rows = enumerate_members(derand), each_point(dataset)
    means = [Fraction(sum(c.predict(p) for p in rows), len(rows)) for c in members]
    overall = sum(means) / len(means)
    return sum((m - overall) ** 2 for m in means) / len(means)


def split_share(table, a, b):
    """The share of the table's members (or trials) that predict
    differently at points a and b, from the one pass over that pair under
    the table's split counts: exact, or a float in Monte Carlo mode."""
    metric = NormalizedHamming(table.dataset.fairness_vectors.shape[1])  # any metric: only the gap is read
    pair = pairs_of(len(table.dataset), [a], [b])
    n_diff = int(pair_classes(table.dataset, metric, pair, table._split_rows(), table._splits, table.size)
                 .class_counts[0])
    return Fraction(n_diff, table.size) if table.cfg.exact else n_diff / table.size


def reference_excesses(size, exact, classes, budget):
    """``measure._excesses`` over Python lists of the class counts and of
    the running pair total: (pairs whose gap count/size exceeds budget(d),
    gap - budget(d) at the largest count of each distance d), each distance's
    first excess found by a bisection of its classes, ascending in count,
    comparing Fraction(count, size) with Fraction(budget(d))."""
    counts, cumulative = classes.class_counts.tolist(), [0, *np.cumsum(classes.weights).tolist()]
    gap = (lambda n: Fraction(n, size)) if exact else (lambda n: n / size)
    ends = [*(np.flatnonzero(np.diff(classes.class_codes)) + 1).tolist(), len(counts)][: len(classes.values)]
    violations, tops = 0, []
    for start, end, d in zip([0, *ends], ends, classes.values):
        b = budget(d)
        over = bisect.bisect_left(range(start, end), True, key=lambda c: Fraction(counts[c], size) > Fraction(b)) + start
        violations += cumulative[end] - cumulative[over]
        tops.append(gap(counts[end - 1]) - b)
    return violations, tops


def reference_gap(derand, x, y, cfg):
    """The family's expected prediction gap at one pair: brute force in
    exact mode, the seeded batch's estimate in Monte Carlo mode."""
    return brute_pairwise(derand, x, y) if cfg.exact else split_share(prediction_table(derand, joined(x, y), cfg), 0, 1)


def reference_fairness_check(derand, dataset, metric, alpha, beta, cfg, pairs):
    """(violations, worst excess) of gap <= alpha*d + beta, pair by pair."""
    violations, worst, rows = 0, -math.inf, each_point(dataset)
    for i, j in pairs:
        gap = reference_gap(derand, rows[i], rows[j], cfg)
        excess = gap - (alpha * reference_distance(metric, rows[i], rows[j]) + beta)
        if excess > 0:
            violations += 1
        if excess > worst:
            worst = excess
    return violations, worst


def reference_family_beta(derand, dataset, metric, alpha, cfg):
    """max(0, max over all pairs of gap - alpha*d), pair by pair."""
    worst = 0
    for x, y in itertools.combinations(each_point(dataset), 2):
        excess = reference_gap(derand, x, y, cfg) - alpha * reference_distance(metric, x, y)
        if excess > worst:
            worst = excess
    return worst


def reference_scorer_beta(scorer, dataset, metric, alpha):
    """max(0, max over pairs of |score gap| - alpha*d), pair by pair, with
    each pair's distance from ``reference_distance``."""
    rows = each_point(dataset)
    scores = [reference_score(scorer, p) for p in rows]
    pairs = itertools.combinations(range(len(rows)), 2)
    # max() keeps its first maximal argument: an int 0 when no excess is positive
    return max([0, *(abs(scores[a] - scores[b]) - alpha * reference_distance(metric, rows[a], rows[b])
                     for a, b in pairs)])


def reference_load(path):
    """The dataset CSV read whole and row by row, each score a ``Fraction``:
    (ids, feature rows, fairness rows or None, labels, {id: score} or None)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = [h.strip() for h in rows[0]]
    feat = [c for c, name in enumerate(header) if name.startswith("feat_")]
    fair = [c for c, name in enumerate(header) if name.startswith("z_")]
    label, score = (header.index(name) if name in header else None for name in ("label", "score"))
    ids, features, fairness, labels, scores = [], [], [], [], {}
    for row in filter(None, rows[1:]):
        ids.append(row[0])
        features.append([float(row[c]) for c in feat])
        fairness.append([float(row[c]) for c in fair])
        labels.append(int(row[label]) if label is not None and row[label] != "" else None)
        if score is not None:
            scores[row[0]] = as_score(row[score])
    return ids, features, fairness if fair else None, labels, None if score is None else scores


def aggregate_fairness(classifier, dataset, metric, tau) -> Fraction:
    """Fraction of tau-close pairs to which the classifier assigns
    different predictions, point by point and pair by pair."""
    rows = each_point(dataset)
    bits = [classifier.predict(p) for p in rows]
    close = [
        (i, j)
        for i, j in itertools.combinations(range(len(dataset)), 2)
        if reference_distance(metric, rows[i], rows[j]) <= tau
    ]
    if not close:
        raise EmptyPairSetError(f"no pairs within distance {tau}")
    return Fraction(sum(bits[i] != bits[j] for i, j in close), len(close))


def brute_violation_search(derand, metric, grid, alpha, beta):
    """The per-member grid scan: every enumerated member's prediction at
    every grid point, then the first adjacent pair whose flip share
    exceeds alpha*d + beta, as its rows (i, i + 1), or None when every
    member is constant."""
    classifiers, grid = enumerate_members(derand), each_point(grid)
    if len(grid) < 2:
        raise InvalidParameterError("grid needs at least 2 points")
    size = len(classifiers)
    if not beta < Fraction(1, size):
        raise InvalidParameterError(f"beta must be below 1/|family| = {1.0 / size}")
    bits = [[c.predict(p) for p in grid] for c in classifiers]
    if all(len(set(row)) == 1 for row in bits):
        return None
    spacing = max(reference_distance(metric, grid[i], grid[i + 1]) for i in range(len(grid) - 1))
    if not Fraction(alpha) * Fraction(spacing) + Fraction(beta) < Fraction(1, size):
        raise GridTooCoarseError(f"adjacent spacing {float(spacing)} must be below {(1.0 / size - beta) / alpha}")
    for i in range(len(grid) - 1):
        flips = sum(row[i] != row[i + 1] for row in bits)
        budget = Fraction(alpha) * Fraction(reference_distance(metric, grid[i], grid[i + 1])) + Fraction(beta)
        if flips and Fraction(flips, size) > budget:
            return i, i + 1
    return None


@pytest.fixture
def py_rng() -> random.Random:
    return random.Random(0xFA1)
