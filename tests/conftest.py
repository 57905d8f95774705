"""Shared builders and independent brute-force oracles.

The oracles evaluate every enumerated classifier through its public
``predict`` method, one point at a time; the library's vectorized
enumeration path must agree with them exactly.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fairderand import Dataset, Point, TabularScorer
from fairderand.errors import EmptyPairSetError, GridTooCoarseError, InvalidParameterError
from fairderand.measure import prediction_table


def random_binary_dataset(rng: random.Random, n_points: int, dim: int) -> Dataset:
    """Distinct binary points, none all-zero (min-wise hashing needs
    non-empty sets)."""
    if n_points > 2**dim - 1:
        raise ValueError(f"only {2**dim - 1} distinct non-zero points in dimension {dim}")
    points = []
    seen = set()
    while len(points) < n_points:
        feats = tuple(float(rng.randint(0, 1)) for _ in range(dim))
        if feats in seen or not any(feats):
            continue
        seen.add(feats)
        points.append(Point(f"p{len(points):03d}", feats))
    return Dataset(points)


def random_real_dataset(rng: random.Random, n_points: int, dim: int) -> Dataset:
    return Dataset(
        [
            Point(f"p{i:03d}", tuple(rng.uniform(-1, 1) for _ in range(dim)))
            for i in range(n_points)
        ]
    )


def random_scorer(rng: random.Random, dataset: Dataset, denominator: int = 997) -> TabularScorer:
    """Tabular scorer with exact rational scores i/denominator."""
    return TabularScorer(
        {p.id: Fraction(rng.randint(0, denominator), denominator) for p in dataset}
    )


def brute_mean(derand, point) -> Fraction:
    members = derand.enumerate_members()
    return Fraction(sum(c.predict(point) for c in members), len(members))


def brute_collision(family, x, y) -> Fraction:
    """Collision probability of a uniform bucketing member, by full
    enumeration."""
    members = family.enumerate()
    return Fraction(sum(m.apply(x) == m.apply(y) for m in members), len(members))


def brute_pairwise(derand, x, y) -> Fraction:
    members = derand.enumerate_members()
    return Fraction(
        sum(abs(c.predict(x) - c.predict(y)) for c in members), len(members)
    )


def brute_aggregate_variance(derand, dataset) -> Fraction:
    members = derand.enumerate_members()
    means = [
        Fraction(sum(c.predict(p) for p in dataset), len(dataset)) for c in members
    ]
    overall = sum(means) / len(means)
    return sum((m - overall) ** 2 for m in means) / len(means)


def split_share(table, a, b):
    """The share of the table's members (or trials) that predict
    differently at points a and b: exact, or a float in Monte Carlo mode."""
    n_diff = int(table.split_counts(np.array([a]), np.array([b]))[0])
    return Fraction(n_diff, table.size) if table.cfg.exact else n_diff / table.size


def reference_gap(derand, x, y, cfg):
    """The family's expected prediction gap at one pair: brute force in
    exact mode, the seeded batch's estimate in Monte Carlo mode."""
    return brute_pairwise(derand, x, y) if cfg.exact else split_share(prediction_table(derand, (x, y), cfg), 0, 1)


def reference_fairness_check(derand, dataset, metric, alpha, beta, cfg, pairs):
    """(violations, worst excess) of gap <= alpha*d + beta, pair by pair."""
    violations, worst = 0, -math.inf
    for i, j in pairs:
        gap = reference_gap(derand, dataset[i], dataset[j], cfg)
        excess = gap - (alpha * metric.distance(dataset[i], dataset[j]) + beta)
        if excess > 0:
            violations += 1
        if excess > worst:
            worst = excess
    return violations, worst


def reference_family_beta(derand, dataset, metric, alpha, cfg):
    """max(0, max over all pairs of gap - alpha*d), pair by pair."""
    worst = 0
    for i, j in itertools.combinations(range(len(dataset)), 2):
        excess = reference_gap(derand, dataset[i], dataset[j], cfg) - alpha * metric.distance(
            dataset[i], dataset[j]
        )
        if excess > worst:
            worst = excess
    return worst


def aggregate_fairness(classifier, dataset, metric, tau) -> Fraction:
    """Fraction of tau-close pairs to which the classifier assigns
    different predictions, point by point and pair by pair."""
    bits = [classifier.predict(p) for p in dataset]
    close = [
        (i, j)
        for i, j in itertools.combinations(range(len(dataset)), 2)
        if metric.distance(dataset[i], dataset[j]) <= tau
    ]
    if not close:
        raise EmptyPairSetError(f"no pairs within distance {tau}")
    return Fraction(sum(bits[i] != bits[j] for i, j in close), len(close))


def brute_violation_search(derand, metric, grid, alpha, beta):
    """The per-member grid scan: every enumerated member's prediction at
    every grid point, then the first adjacent pair whose flip share
    exceeds alpha*d + beta, or None when every member is constant."""
    classifiers = derand.enumerate_members()
    if len(grid) < 2:
        raise InvalidParameterError("grid needs at least 2 points")
    size = len(classifiers)
    if not beta < 1.0 / size:
        raise InvalidParameterError(f"beta must be below 1/|family| = {1.0 / size}")
    bits = [[c.predict(p) for p in grid] for c in classifiers]
    if all(len(set(row)) == 1 for row in bits):
        return None
    spacing_cap = (1.0 / size - beta) / alpha
    spacing = max(float(metric.distance(grid[i], grid[i + 1])) for i in range(len(grid) - 1))
    if spacing >= spacing_cap:
        raise GridTooCoarseError(f"adjacent spacing {spacing} must be below {spacing_cap}")
    for i in range(len(grid) - 1):
        flips = sum(row[i] != row[i + 1] for row in bits)
        if flips and Fraction(flips, size) > alpha * metric.distance(grid[i], grid[i + 1]) + beta:
            return grid[i], grid[i + 1]
    return None


@pytest.fixture
def py_rng() -> random.Random:
    return random.Random(0xFA1)
