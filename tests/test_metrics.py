import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fairderand import Angular, Dataset, JaccardDistance, NormalizedHamming, Point, ScaledEuclidean
from fairderand.errors import DimensionMismatchError, NotBinaryError, ZeroVectorError

from conftest import pairs_of


_IDS = itertools.count()


def pt(*coords, z=None):
    return Point(f"x{next(_IDS)}", tuple(coords), fairness_features=z)


class TestValues:
    def test_hamming(self):
        d = NormalizedHamming(4)
        assert d.distance(pt(0, 0, 1, 1), pt(0, 1, 1, 0)) == Fraction(1, 2)

    def test_angular_right_angle(self):
        assert Angular().distance(pt(1, 0), pt(0, 1)) == pytest.approx(0.5)

    def test_jaccard(self):
        # indicator vectors of {1,2,3} and {2,3,4} over a 5-element universe
        a = pt(0, 1, 1, 1, 0)
        b = pt(0, 0, 1, 1, 1)
        assert JaccardDistance().distance(a, b) == Fraction(1, 2)

    def test_jaccard_empty_union_is_zero(self):
        assert JaccardDistance().distance(pt(0, 0), pt(0, 0)) == 0

    def test_scaled_euclidean_clamps(self):
        d = ScaledEuclidean(2.0)
        assert d.distance(pt(0, 0), pt(0, 1)) == pytest.approx(0.5)
        assert d.distance(pt(0, 0), pt(0, 100)) == 1.0

    def test_float_distances_round_each_sum_once(self):
        # each sum is the float nearest the exact sum of its float terms, in
        # every coordinate order; a left-to-right sum moves the last digit
        def rounded(terms):
            return float(sum(map(Fraction, terms)))

        u, v = (0.6, 0.7, 0.9), (0.2, 0.1, 0.7)
        nu, nv = (math.sqrt(rounded([a * a for a in w])) for w in (u, v))
        cos = rounded([a * b for a, b in zip(u, v)]) / (nu * nv)
        norm = math.sqrt(rounded([(a - b) ** 2 for a, b in zip(u, v)]))
        for order in itertools.permutations(range(3)):
            x, y = pt(*(u[i] for i in order)), pt(*(v[i] for i in order))
            assert Angular().distance(x, y) == math.acos(cos) / math.pi
            assert ScaledEuclidean(2.0).distance(x, y) == norm / 2.0


class TestErrors:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            NormalizedHamming(2).distance(pt(0, 1), pt(0, 1, 1))

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            Angular().distance(pt(0, 0), pt(1, 0))

    def test_hamming_wrong_width(self):
        with pytest.raises(DimensionMismatchError):
            NormalizedHamming(3).distance(pt(0, 1), pt(0, 1))


def test_metric_reads_fairness_features_when_present():
    d = NormalizedHamming(2)
    a = Point("a", (9.0, 9.0, 9.0), fairness_features=(0.0, 1.0))
    b = Point("b", (9.0, 9.0, 9.0), fairness_features=(1.0, 1.0))
    assert d.distance(a, b) == Fraction(1, 2)


class TestAxioms:
    """Symmetry, identity, range, and triangle inequality on random triples."""

    N_TRIPLES = 10_000
    FLOAT_SLACK = 1e-9

    def _check(self, metric, make_point):
        rng = random.Random(1729)
        for _ in range(self.N_TRIPLES):
            x, y, z = make_point(rng), make_point(rng), make_point(rng)
            dxy = metric.distance(x, y)
            assert metric.distance(x, x) == 0
            assert dxy == metric.distance(y, x)
            assert 0 <= dxy <= 1
            assert dxy <= metric.distance(x, z) + metric.distance(z, y) + self.FLOAT_SLACK

    def test_hamming_axioms(self):
        self._check(
            NormalizedHamming(6),
            lambda rng: pt(*[rng.randint(0, 1) for _ in range(6)]),
        )

    def test_jaccard_axioms(self):
        self._check(
            JaccardDistance(),
            lambda rng: pt(*[rng.randint(0, 1) for _ in range(6)]),
        )

    def test_angular_axioms(self):
        def nonzero(rng):
            while True:
                v = [rng.uniform(-1, 1) for _ in range(3)]
                if math.sqrt(sum(c * c for c in v)) > 1e-6:
                    return pt(*v)

        self._check(Angular(), nonzero)

    def test_scaled_euclidean_axioms(self):
        self._check(
            ScaledEuclidean(4.0),
            lambda rng: pt(*[rng.uniform(-1, 1) for _ in range(3)]),
        )


class HalvedHamming(NormalizedHamming):
    """A subclass whose own distance the pair path must call."""

    def distance(self, x, y):
        return super().distance(x, y) / 2


def binary_points(rng, n, dim):
    """n random 0/1 points and the empty set."""
    return [pt(*[rng.randint(0, 1) for _ in range(dim)]) for _ in range(n)] + [pt(*[0] * dim)]


def real_points(rng, n, dim):
    return [pt(*[rng.uniform(-1, 1) for _ in range(dim)]) for _ in range(n)]


def binary_points_70(rng, n, dim):
    """Binary points two uint64 words wide."""
    return binary_points(rng, n, 70)


def graded_points(rng, n, dim):
    """Points with entries other than 0 and 1, compared as floats."""
    return [pt(*[rng.choice((0.0, 0.5, 1.0, 2.0, -1.0)) for _ in range(dim)]) for _ in range(n)]


def one_graded_point(rng, n, dim):
    """0/1 points, some zeros written -0.0, and one point that is not 0/1."""
    points = [pt(*[rng.choice((0.0, -0.0, 1.0)) for _ in range(dim)]) for _ in range(n)]
    return [pt(*[-0.0] * dim), pt(*[0.0] * (dim - 1), 0.5)] + points


class TestPairDistances:
    """pair_distances gives, pair by pair, the value and type of distance."""

    @pytest.mark.parametrize(
        "metric,make",
        [
            (NormalizedHamming(6), binary_points),
            (JaccardDistance(), binary_points),
            (Angular(), real_points),
            (ScaledEuclidean(1.5), real_points),
            (HalvedHamming(6), binary_points),
            (JaccardDistance(), lambda rng, n, dim: binary_points(rng, n, 70)),  # two words per set
            (NormalizedHamming(70), binary_points_70),
            (NormalizedHamming(6), graded_points),
            (NormalizedHamming(6), one_graded_point),
        ],
    )
    def test_equals_per_pair_distance(self, metric, make):
        rng = random.Random(42)
        points = make(rng, 30, 6)
        i, j = np.triu_indices(len(points), 1)
        i, j = np.concatenate([i, [3, 0]]), np.concatenate([j, [3, 0]])  # and x == y
        codes, values = metric.pair_distances(Dataset(points), pairs_of(len(points), i, j))
        assert len(codes) == len(i)
        for p, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
            expected = metric.distance(points[a], points[b])
            got = values[codes[p]]
            assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize(
        "metric", [NormalizedHamming(2), JaccardDistance(), Angular(), ScaledEuclidean()]
    )
    def test_mixed_dimensions_raise_like_distance(self, metric):
        points = [pt(1, 0), pt(0, 1), pt(1, 1, 0)]
        with pytest.raises(DimensionMismatchError):
            metric.distance(points[1], points[2])
        with pytest.raises(DimensionMismatchError):
            metric.pair_distances(Dataset(points), pairs_of(len(points), [0, 1], [1, 2]))

    def test_non_binary_jaccard_raises_like_distance(self):
        points = [pt(1, 0), pt(0, 1), pt(0.5, 1)]
        with pytest.raises(NotBinaryError):
            JaccardDistance().distance(points[0], points[2])
        with pytest.raises(NotBinaryError):
            JaccardDistance().pair_distances(Dataset(points), pairs_of(len(points), [0, 0], [1, 2]))
        # a point in no pair is never read, as with distance
        codes, values = JaccardDistance().pair_distances(Dataset(points), pairs_of(len(points), [0], [1]))
        assert values[codes[0]] == 1
