"""Shared builders and independent brute-force oracles.

The oracles evaluate every enumerated classifier through its public
``predict`` method, one point at a time; the library's vectorized
enumeration path must agree with them exactly.
"""

import math
import random
from fractions import Fraction

import pytest

from fairderand import Dataset, Point, TabularScorer
from fairderand.measure import pairwise_unfairness


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


def reference_gap(derand, x, y, cfg):
    """The family's expected prediction gap at one pair: brute force in
    exact mode, the seeded batch's estimate in Monte Carlo mode."""
    return brute_pairwise(derand, x, y) if cfg.exact else pairwise_unfairness(derand, x, y, cfg).value


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
    for i, j in dataset.index_pairs():
        excess = reference_gap(derand, dataset[i], dataset[j], cfg) - alpha * metric.distance(
            dataset[i], dataset[j]
        )
        if excess > worst:
            worst = excess
    return worst


@pytest.fixture
def py_rng() -> random.Random:
    return random.Random(0xFA1)
